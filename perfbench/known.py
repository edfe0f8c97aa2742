"""Known answers for the benchmark's inputs.

Every value here comes from theory, from a published count, or is a pinned
regression value labelled as such. None of it is computed by calling the
code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod

# OEIS A000112: partially ordered sets on n unlabeled points, n = 1..5.
POSETS_BY_SIZE = {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}

# OEIS A006982: distributive lattices on n unlabeled elements, n = 1..5.
DISTRIBUTIVE_LATTICES_BY_SIZE = {1: 1, 2: 1, 3: 1, 4: 2, 5: 3}

# Q-spaces up to isomorphism with at most 3 and at most 4 points, as the
# project's roadmap records them.
QSPACES_UP_TO_3_POINTS = 54
QSPACES_UP_TO_4_POINTS = 768

# Regression pin, not an independent count: the number of distributive
# information algebras with at most 5 elements that the seed version of
# the package enumerates. No published sequence gives this number.
ALGEBRAS_UP_TO_5_PIN = 94


@dataclass(frozen=True)
class Family:
    """One generated input and the facts theory gives about it."""

    name: str
    gen_args: tuple[str, ...]   # arguments after `infalg gen`
    n: int                      # carrier size
    atoms: int                  # number of atoms
    classification: str         # text printed by `infalg classify`
    dual_points: int | None     # meet-irreducibles, distributive inputs only


def string_family(k: int, max_len: int) -> Family:
    # Words of length <= max_len plus the contradiction. The atoms are the
    # words of full length; each word is the meet (longest common prefix)
    # of its full-length extensions, so the algebra is atomistic for k >= 2,
    # but only prefix-closed atom sets are realized, so not completely so.
    # Two words that are not prefixes of each other have no common upper
    # bound other than the contradiction, which breaks distributivity.
    n = sum(k ** i for i in range(max_len + 1)) + 1
    return Family(f"string_{k}_{max_len}", ("string", str(k), str(max_len)), n,
                  k ** max_len, "atomistic", None)


def multivariate_family(*sizes: int) -> Family:
    # The full power set of a universe of prod(sizes) points, ordered by
    # reverse inclusion: a Boolean lattice, completely atomistic, with one
    # atom and one meet-irreducible per point.
    points = prod(sizes)
    return Family("multivariate_" + "_".join(map(str, sizes)),
                  ("multivariate", *map(str, sizes)), 2 ** points, points,
                  "completely atomistic", points)


def lattice_family(chain: int, *sizes: int) -> Family:
    # Maps from prod(sizes) points into a chain of `chain` elements: a
    # product of chains, hence distributive. It has one atom per point and
    # (chain - 1) meet-irreducibles per point. Every finite lattice is
    # atomic; with chain >= 3 the middle values are not meets of atoms.
    points = prod(sizes)
    return Family("lattice_" + "_".join(map(str, sizes)) + f"_chain_{chain}",
                  ("lattice", *map(str, sizes), "--chain", str(chain)),
                  chain ** points, points, "atomic", points * (chain - 1))


S25 = string_family(2, 5)
S26 = string_family(2, 6)
S33 = string_family(3, 3)
M22 = multivariate_family(2, 2)
M23 = multivariate_family(2, 3)
L3C3 = lattice_family(3, 3)
L22C3 = lattice_family(3, 2, 2)
L2C4 = lattice_family(4, 2)

# Closing a family under composition: string extractors truncate, so they
# compose by taking the shorter length and any subset is already closed;
# projections compose by intersecting their variable sets. Each entry gives
# the labels dropped before `close --with-identity` and the extractor count
# theory predicts afterwards.
CLOSE_CASES = {
    # e0 e1 e3 e4 stay, the identity is added back as `id`
    S25.name: (("e2", "e5"), 5),
    # e0 e1 e2 stay, plus `id`
    S33.name: (("e3",), 4),
    # s0 and s1 stay, plus `id`; s0.s1 is the projection onto no variable
    M23.name: (("s", "s01"), 4),
    L22C3.name: (("s", "s01"), 4),
}

# Failure path of the duality commands on non-distributive algebras.
NOT_DISTRIBUTIVE_MESSAGE = "not a distributive algebra"

# Axioms a corrupted file must fail. Changing join[a][b] for a != b breaks
# commutativity, since join[b][a] keeps the old value. Sending a nonzero
# element x to the contradiction breaks e(x) <= x.
CORRUPT_JOIN_AXIOM = "commutative"
CORRUPT_EXTRACTOR_AXIOM = "extraction_dominated"
