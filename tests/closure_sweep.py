"""Closure-operator sweep: every family of one to four separating
equivalences on every poset of up to 5 points, closed or not.

``reconstruct`` certifies its output by a label table that resolves: the
saturations are closure operators on the up-sets, and two whose composites
are both listed saturations commute. This script checks that argument and
the round trips built on it against ``reference``, the tests' kernel:

- every label table that resolves is symmetric;
- ``reconstruct`` equals the kernel's up-set algebra, which passes the
  kernel's axioms and CDF verdict;
- ``round_trip_space`` equals the kernel's double dual, read off the prime
  filters, and its morphism passes the kernel's Q-morphism laws;
- a table that does not resolve fails both with the error it names.

It prints the first counterexample or a count that differs from the one
pinned below and exits 1, or prints the counts and exits 0. Tier-1 runs
``sweep(4)``. Standard library only, and not collected by pytest:

    PYTHONPATH=src python tests/closure_sweep.py [max_points]
"""

import sys
from itertools import combinations

import reference as ref
from infalg.duality import QSpace, reconstruct, round_trip_space
from infalg.equivalence import StarFamily
from infalg.errors import InfAlgError
from infalg.generators import enumerate_posets, separating_equivalences

# (families, resolving tables, resolving tables of families not star-closed)
COUNTS = {4: (6996, 1185, 82), 5: (1040293, 29951, 2904)}


def failure(run, s):
    """(type, message, witness) of the error run(s) raises, or None."""
    try:
        run(s)
    except InfAlgError as exc:
        return type(exc).__name__, str(exc), exc.witness
    return None


def expected_failure(space):
    """The error of a label table that does not resolve, as ``failure``
    gives it, or None: colliding saturations, else the first unlisted
    composite."""
    arrays = ref.saturations(*space)
    if len(set(arrays)) < len(arrays):
        return "StructureError", "cannot resolve composition: saturation arrays collide", None
    w = next(((k, l) for k, row in enumerate(ref.label_table(arrays))
              for l, c in enumerate(row) if c is None), None)
    if w is None:
        return None
    return "StructureError", f"saturations not closed under composition at ({w[0]},{w[1]})", w


def counterexample(s):
    """What breaks on the Q-space s, or None; and whether its table resolves."""
    space = ref.space_of(s)
    expected = expected_failure(space)
    if expected is not None:
        for run in (reconstruct, round_trip_space):
            if failure(run, s) != expected:
                return f"{run.__name__} does not raise {expected}", False
        return None, False
    a = ref.reconstruct(space)
    tab = a[4]
    k = len(tab)
    w = next(((i, j) for i in range(k) for j in range(i) if tab[i][j] != tab[j][i]), None)
    if w is not None:
        return f"asymmetric label table at {w}", True
    if any(ref.axioms(a).values()) or not ref.cdf(a)[0]:
        return "the kernel rejects the reconstruction", True
    b = reconstruct(s)
    if (ref.algebra_of(b), b.poset.up, b.labels) != (a, ref.order_of(a[0]), s.eqs.labels):
        return "reconstruct differs from the kernel's up-set algebra", True
    rt = round_trip_space(s)
    target, points, lam = ref.round_trip_space(space)
    omega = tuple(range(len(space[1])))
    if (ref.space_of(rt.target), rt.target.eqs.n, rt.target.eqs.labels, rt.points,
            rt.morphism.alpha, rt.morphism.omega) != (
            target, len(target[0]), s.eqs.labels, points, lam, omega):
        return "round_trip_space differs from the kernel's double dual", True
    if not ref.holds(ref.q_morphism_items(lam, omega, space, target)):
        return "round_trip_space's morphism fails the Q-morphism laws", True
    return None, True


def sweep(max_points: int):
    """(the first counterexample or None, (families, resolving, not star-closed))."""
    families = resolving = not_closed = 0
    for poset in enumerate_posets(max_points):
        pool = separating_equivalences(poset)
        for k in range(1, 5):
            for members in combinations(pool, k):
                s = QSpace(poset, StarFamily(poset.n, members, [f"t{i}" for i in range(k)]))
                problem, resolves = counterexample(s)
                if problem is not None:
                    return (f"counterexample: {problem}\n  order rows {poset.up}\n"
                            f"  members {s.eqs.members}"), None
                families += 1
                resolving += resolves
                not_closed += resolves and not s.eqs.closed
    return None, (families, resolving, not_closed)


def main(max_points: int) -> int:
    problem, counts = sweep(max_points)
    if problem is not None:
        print(problem)
        return 1
    print("families: {}, resolving: {}, not star-closed: {}".format(*counts))
    if counts != COUNTS.get(max_points, counts):
        print(f"expected {COUNTS[max_points]}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(int(sys.argv[1]) if len(sys.argv) > 1 else 5))
