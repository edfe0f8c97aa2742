"""Finite posets and bounded (semi)lattices in the information order.

Conventions used throughout the package:

* carrier elements are dense indices 0..n-1;
* the information order puts the vacuous element (``unit``) at the bottom
  and the contradiction (``zero``) at the top; combination is join;
* subsets of a carrier are bitmasks, bit x set meaning x is a member;
* a semilattice read from one table, its order or its join, derives the
  other (a <= b iff a \\/ b == b) by ``semilattice_from_poset`` or
  ``join_semilattice``; a generator whose own structure gives both tables
  builds ``BoundedJoinSemilattice`` directly, with the proof in its
  docstring;
* derived order data (the down rows, the row indexes, the up-set index
  and the separation verdicts of a poset, the meet table, the
  meet-irreducibles, the irreducible rows, their index and meet columns,
  the kernel-pair verdicts and the member witnesses of a semilattice, the
  CDF verdict of an algebra) is computed on first use and cached on the
  frozen structure that owns it; callers must not mutate it. The
  separation verdicts, ``duality.check_separating``'s, are keyed by
  equivalence, the kernel-pair verdicts, ``algebra.check_kernel_theorem``'s,
  by a pair of extractor arrays, and the member witnesses,
  ``algebra.verify_axioms``'s, by one array: every family on one
  enumerated base reads them;
* one Close-by-One search, ``closed_sets``, finds the up-sets of a poset
  and the closed families of a pool in ``generators``, at a cost that
  grows with the sets found: an order is bounded by its up-set count alone;
* a cubic law (associativity, distributivity) is decided by a quadratic
  certificate first, and scanned only to name its first witness;
* so is the order a join table derives: once the table is idempotent and
  commutative and passes the least-upper-bound check, the derived relation
  is a partial order by proof, and no boolean table is built for it; that
  check, ``commutative_bound_witness``, is the one bound scan, as a meet
  table read from a file is compared with the derived ``meet`` table;
* a finite bounded join-semilattice is a lattice, so one type,
  ``BoundedJoinSemilattice``, serves for both: its meets are derived on
  first use, never missing, since the lower bounds of a and b include the
  unit and their join is the greatest of them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import compress, count, islice, permutations
from operator import ne

from .errors import CapExceeded, FormatError, StructureError
from .report import CheckItem, Report
from .semigroup import compose, first_row_witness, homomorphism_witness


def bits(mask: int):
    """Iterate the set bit positions of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(xs) -> int:
    m = 0
    for x in xs:
        m |= 1 << x
    return m


def pullback(alpha, mask: int) -> int:
    """Preimage under a point map: the mask of every p with alpha[p] in mask."""
    return mask_of(p for p, v in enumerate(alpha) if (mask >> v) & 1)


def closed_sets(k: int, close):
    """Each nonempty closed subset of range(k) once, as a mask, by
    Close-by-One (Ganter & Reuter, Order 8, 1991; Kuznetsov 1993).
    ``close(mask, i)`` is the closure of mask | 1 << i, or None to cut the
    branch. A closed set grows by one index above the last one added, and a
    closure is kept only if it adds no index below the new one, so each
    closed set is reached once, from its closed parent."""
    stack = [(0, 0)]  # closed set, first index it may add
    while stack:
        closed, start = stack.pop()
        for i in range(start, k):
            if not (closed >> i) & 1:
                mask = close(closed, i)
                if mask is not None and not (mask ^ closed) & ((1 << i) - 1):
                    yield mask
                    stack.append((mask, i + 1))


@dataclass(frozen=True)
class FinitePoset:
    """Finite partial order; row ``up[a]`` is the bitmask of all b with a <= b."""

    n: int
    up: tuple[int, ...]

    def le(self, a: int, b: int) -> bool:
        return (self.up[a] >> b) & 1 == 1

    def full_mask(self) -> int:
        return (1 << self.n) - 1

    @cached_property
    def down(self) -> tuple[int, ...]:
        """Row ``down[a]`` is the bitmask of all b with b <= a."""
        down = [0] * self.n
        for a, row in enumerate(self.up):
            for b in bits(row):
                down[b] |= 1 << a
        return tuple(down)

    @cached_property
    def up_index(self) -> dict[int, int]:
        """Each up row mapped to its point (rows differ by antisymmetry). The
        upper bounds of a set have a least element c iff they are ``up[c]``
        (Davey & Priestley, Introduction to Lattices and Order, 2002, ch. 2)."""
        return {row: a for a, row in enumerate(self.up)}

    @cached_property
    def down_index(self) -> dict[int, int]:
        """Each down row mapped to its point; the lower bounds of a set have a
        greatest element c iff they are ``down[c]``."""
        return {row: a for a, row in enumerate(self.down)}

    @cached_property
    def up_set_index(self) -> dict[int, int]:
        """Every up-set mask mapped to its position in ascending mask order."""
        return check_upset_cap(self, None)

    def bottom(self) -> int | None:
        full = self.full_mask()
        lows = [a for a in range(self.n) if self.up[a] == full]
        return lows[0] if len(lows) == 1 else None

    def top(self) -> int | None:
        """The greatest element: in a finite order, the only maximal one."""
        tops = [a for a in range(self.n) if self.up[a] == 1 << a]
        return tops[0] if len(tops) == 1 else None

    def restrict(self, elems) -> "FinitePoset":
        """Induced subposet on the given element sequence, in that order."""
        elems = list(elems)
        return FinitePoset(len(elems), tuple(pullback(elems, self.up[e]) for e in elems))

    def is_antichain(self) -> bool:
        return all(self.up[a] == 1 << a for a in range(self.n))

    def bool_table(self) -> list[list[bool]]:
        return [[self.le(a, b) for b in range(self.n)] for a in range(self.n)]

    @classmethod
    def from_bool_table(cls, rows) -> "FinitePoset":
        return verify_poset(rows).require("not a partial order").poset


def up_rows(rows) -> tuple[int, ...]:
    """Bitmask rows of a boolean order table: bit b of row a is rows[a][b]."""
    return tuple(mask_of(b for b, v in enumerate(row) if v) for row in rows)


@dataclass
class PosetReport(Report):
    """The report of verify_poset; when it is ok, ``poset`` is the checked
    order, built on the up rows the check derived."""

    poset: FinitePoset | None = None


def verify_poset(rows) -> PosetReport:
    """Check reflexivity, antisymmetry and transitivity of a boolean table.

    Reports the first witness of each violated axiom. Raises FormatError
    for a non-square or non-boolean table.
    """
    n = len(rows)
    for row in rows:
        if len(row) != n:
            raise FormatError(f"leq table is not square: {n} rows, row of length {len(row)}")
        if set(map(type, row)) != {bool}:  # only a failing row is rescanned
            for v in row:
                if not isinstance(v, bool):
                    raise FormatError(f"leq entries must be booleans, got {v!r}")
    report = PosetReport()
    refl = next((a for a in range(n) if not rows[a][a]), None)
    report.add("reflexive", refl is None, refl)
    up = up_rows(rows)
    # a <= b <= a for some b != a
    anti = next(((a, b) for a in range(n) for b in bits(up[a] & ~(1 << a))
                 if (up[b] >> a) & 1), None)
    report.add("antisymmetric", anti is None, anti)
    # a <= b <= c without a <= c: up[b] is not a subset of up[a]
    trans = next(((a, b, next(bits(up[b] & ~up[a])))
                  for a in range(n) for b in bits(up[a]) if up[b] & ~up[a]), None)
    report.add("transitive", trans is None, trans)
    if report.ok:
        report.poset = FinitePoset(n, up)
    return report


def glb(poset: FinitePoset, a: int, b: int) -> int | None:
    """Greatest lower bound of {a, b} in the poset, or None.

    A poset need not have meets (a bounded join-semilattice always has);
    callers decide whether a missing meet is an error.
    """
    return poset.down_index.get(poset.down[a] & poset.down[b])


def glb_of_set(poset: FinitePoset, mask: int) -> int | None:
    """Greatest lower bound of a subset; the top element for the empty set."""
    lowers = poset.full_mask()
    for a in bits(mask):
        lowers &= poset.down[a]
    return poset.down_index.get(lowers)


# Row kernels: one row of a bound table per call, each step a map over the
# row at C speed.

def lub_row(poset: FinitePoset, a: int) -> tuple[int | None, ...]:
    """Least upper bound of {a, b} for b = 0..n-1, None where it is missing."""
    return tuple(map(poset.up_index.get, map(poset.up[a].__and__, poset.up)))


def glb_row(poset: FinitePoset, a: int) -> tuple[int | None, ...]:
    """``glb(poset, a, b)`` for b = 0..n-1."""
    return tuple(map(poset.down_index.get, map(poset.down[a].__and__, poset.down)))


def commutative_bound_witness(rows, table) -> tuple[int, int] | None:
    """First (a, b) where the entry c = table[a][b] of a commutative table is
    not the least upper bound of {a, b} in the order of the up rows
    ``rows``: it is iff c is in range(n) and rows[c] == rows[a] & rows[b].
    Only b >= a is scanned: (a, b) fails iff (b, a) does, so the first
    failing pair has b >= a."""
    row_of = dict(enumerate(rows))
    # lazy row tails, not slices: sliced rows, a tuple of each length per
    # scan, fragment the heap; they raised the peak RSS of a 30 s duality
    # benchmark run by 12% (2 vCPUs, Python 3.11.7)
    return next(((a, b) for a, row in enumerate(rows)
                 for b in compress(count(a), map(ne, map(row.__and__, islice(rows, a, None)),
                                                 map(row_of.get, islice(table[a], a, None))))),
                None)


@dataclass(frozen=True)
class BoundedJoinSemilattice:
    """The package's one lattice type: a finite bounded join-semilattice,
    whose meets are derived on first use."""

    poset: FinitePoset
    join: tuple[tuple[int, ...], ...]
    unit: int
    zero: int

    @property
    def n(self) -> int:
        return self.poset.n

    @cached_property
    def meet(self) -> tuple[tuple[int, ...], ...]:
        """The meet table; every meet exists, since the unit is the least
        element."""
        return tuple(glb_row(self.poset, a) for a in range(self.n))

    @cached_property
    def meet_irreducibles(self) -> list[int]:
        """Elements that are not proper meets, excluding the top (zero): in a
        finite lattice, exactly the elements with a single upper neighbor c,
        that is, whose strict up-set is the principal up-set of c."""
        index = self.poset.up_index
        return [m for m, row in enumerate(self.poset.up) if row & ~(1 << m) in index]

    @cached_property
    def irreducible_rows(self) -> tuple[int, ...]:
        """Row ``u[x]`` is the mask of the meet-irreducibles at or above x.
        Each x is the meet of its row (the top of the empty one), so
        x <= y iff u[x] holds u[y], and ``u[x \\/ y] == u[x] & u[y]``
        (Birkhoff; Davey & Priestley, Introduction to Lattices and Order,
        2002, ch. 5)."""
        return tuple(map(mask_of(self.meet_irreducibles).__and__, self.poset.up))

    @cached_property
    def irreducible_index(self) -> dict[int, int]:
        """Each irreducible row mapped to its element."""
        return {row: x for x, row in enumerate(self.irreducible_rows)}

    @cached_property
    def irreducible_meets(self) -> tuple[tuple[int, ...], ...] | None:
        """Column j holds the element whose row is ``u[x] | u[m]``, for
        x = 0..n-1 and m the j-th meet-irreducible: the meet of x and m,
        since every lower bound's row holds that union. None, from the first
        union that is no row, when the lattice is not distributive (see
        ``is_distributive``)."""
        u, index = self.irreducible_rows, self.irreducible_index
        columns = []
        for m in self.meet_irreducibles:
            column = tuple(map(index.get, map(u[m].__or__, u)))
            if None in column:
                return None
            columns.append(column)
        return tuple(columns)


def semilattice_from_poset(poset: FinitePoset) -> BoundedJoinSemilattice:
    """Build the join table from the order, with its least element as unit and
    its greatest as zero. Every pair must have a lub (the witness names the
    first pair without one), and then the join of all points is the top; an
    order with every join but no least element raises without a witness."""
    join = []
    for a in range(poset.n):
        row = lub_row(poset, a)
        if None in row:
            b = row.index(None)
            raise StructureError(f"no least upper bound for ({a},{b})", witness=(a, b))
        join.append(row)
    unit = poset.bottom()
    if unit is None:
        raise StructureError("no least element")
    return BoundedJoinSemilattice(poset, tuple(join), unit, poset.top())


@dataclass
class SemilatticeReport(Report):
    """The report of verify_semilattice; when it is ok, ``semilattice`` is the
    checked structure, built on the order the check derived."""

    semilattice: BoundedJoinSemilattice | None = None


def verify_semilattice(join, unit: int, zero: int) -> SemilatticeReport:
    """Check a join table: semigroup laws, bounds, and order/join coherence.

    The order is derived by a <= b iff join[a][b] == b; the table must then
    be the least-upper-bound table of that order. Certificates (Davey &
    Priestley, Introduction to Lattices and Order, 2002, ch. 2): a
    commutative, idempotent table is associative iff it is that table, and
    then its order is a partial order. Idempotence gives reflexivity,
    commutativity antisymmetry, and the bound check transitivity: a <= b
    means join[a][b] == b, so up[b] == up[a] & up[b] is a subset of up[a].
    The boolean order table is built for verify_poset only when the bound
    check fails or is not reached.
    """
    n = len(join)
    table = tuple(map(tuple, join))
    report = SemilatticeReport()
    idem = next((a for a in range(n) if table[a][a] != a), None)
    report.add("idempotent", idem is None, idem)
    # row a against column a; only the first differing row is rescanned
    comm = next(((a, next((b for b in range(n) if row[b] != col[b]), n))
                 for a, (row, col) in enumerate(zip(table, zip(*table))) if row != col), None)
    report.add("commutative", comm is None, comm)
    sl = bad = None
    if idem is None and comm is None:
        sl = join_semilattice(table, unit, zero)
        bad = commutative_bound_witness(sl.poset.up, table)
    certified = sl is not None and bad is None
    if certified:
        order_report = Report([CheckItem(name, True)
                               for name in ("reflexive", "antisymmetric", "transitive")])
    else:
        order_report = verify_poset([[table[a][b] == b for b in range(n)] for a in range(n)])
    # row (a, b) over c: join[join[a][b]][c] against join[a][join[b][c]]
    assoc = None if certified else first_row_witness(
        ((a, b), table[table[a][b]], compose(table[a], table[b]))
        for a in range(n) for b in range(n))
    report.add("associative", assoc is None, assoc)
    un = next((a for a in range(n) if table[a][unit] != a), None)
    report.add("unit_neutral", un is None, un)
    zr = next((a for a in range(n) if table[a][zero] != zero), None)
    report.add("zero_absorbing", zr is None, zr)
    report.items.extend(order_report.items)
    if sl is not None and order_report.ok:
        report.add("join_is_least_upper_bound", bad is None, bad)
    if report.ok:
        report.semilattice = sl
    return report


def semilattice_from_join(join, unit: int, zero: int) -> BoundedJoinSemilattice:
    report = verify_semilattice(join, unit, zero)
    return report.require("not a bounded join-semilattice").semilattice


def join_semilattice(join, unit: int, zero: int) -> BoundedJoinSemilattice:
    """Semilattice of a join table that verify_semilattice accepted, unchecked;
    a <= b iff join[a][b] == b."""
    poset = FinitePoset(len(join), tuple(mask_of(b for b, j in enumerate(row) if j == b)
                                         for row in join))
    return BoundedJoinSemilattice(poset, tuple(tuple(row) for row in join), unit, zero)


def try_lattice(sl: BoundedJoinSemilattice) -> BoundedJoinSemilattice:
    """Derive the meet table, which never fails: a bounded join-semilattice
    is a lattice. The table is cached on the semilattice, which is returned.
    It stays a function only because perfbench/tracer.py binds it by name."""
    sl.meet
    return sl


def lattice_from_semilattice(sl: BoundedJoinSemilattice) -> BoundedJoinSemilattice:
    """try_lattice, returning its argument with the meet table cached; it
    stays only because perfbench/tracer.py binds it by name."""
    return try_lattice(sl)


def is_distributive(lat: BoundedJoinSemilattice) -> tuple[bool, tuple | None]:
    """Whether a /\\ (b \\/ c) == (a /\\ b) \\/ (a /\\ c) holds; witness triple on failure.
    Certificate, on the irreducible rows u (Birkhoff; Davey & Priestley,
    Introduction to Lattices and Order, 2002, ch. 5): x -> u[x] is injective
    and sends joins to intersections, so a finite lattice is distributive
    iff its rows are closed under union, a lattice of sets. Every row is the
    union of the rows u[m] of its own meet-irreducibles m, so closure holds
    iff each u[x] | u[m] is a row: ``irreducible_meets`` is not None. Only
    a failing certificate scans meet rows, built one at a time and not
    cached, up to the first row that names a witness."""
    if lat.irreducible_meets is not None:
        return True, None
    # distributive iff every meet translation meet[a] is a join endomorphism
    join = lat.join
    return False, next((a, *w) for a in range(lat.n)
                       if (w := homomorphism_witness(glb_row(lat.poset, a), join, join))
                       is not None)


def complements(lat: BoundedJoinSemilattice) -> tuple[dict[int, int] | None, int | None]:
    """Complement map x -> x^c with join zero and meet unit, or (None, witness)."""
    out = {}
    for a in range(lat.n):
        c = next((b for b in range(lat.n)
                  if lat.join[a][b] == lat.zero and lat.meet[a][b] == lat.unit), None)
        if c is None:
            return None, a
        out[a] = c
    return out, None


def meet_irreducibles(lat: BoundedJoinSemilattice) -> list[int]:
    """The lattice's cached list; callers must not mutate it."""
    return lat.meet_irreducibles


def up_sets(poset: FinitePoset) -> list[int]:
    """All upward-closed subsets as masks, ascending; includes 0 and the full set."""
    return list(poset.up_set_index)


def check_upset_cap(poset: FinitePoset, cap: int | None) -> dict[int, int]:
    """The order's ``up_set_index``, after CapExceeded when it has more than
    cap up-sets, the empty one included (None: no bound): reconstruct's
    bound, which Q-space reads also check before any saturation. The search
    stops at the first up-set past the cap; the index it completes is
    cached, so an order within the cap has its up-sets listed once."""
    index = vars(poset).get("up_set_index")
    if index is None:
        up, found = poset.up, [0]
        for mask in closed_sets(poset.n, lambda mask, i: mask | up[i]):
            if cap is not None and len(found) >= cap:
                break
            found.append(mask)
        else:
            index = vars(poset)["up_set_index"] = {m: i for i, m in enumerate(sorted(found))}
    if index is None or cap is not None and len(index) > cap:
        raise CapExceeded(f"up-sets exceed the cap {cap}")
    return index


def up_closure(poset: FinitePoset, mask: int) -> int:
    out = 0
    for x in bits(mask):
        out |= poset.up[x]
    return out


def relabelings(poset: FinitePoset):
    """Each permutation of the points, the identity first, with the
    row-major order table it induces: entry (a, b) is whether perm[a] lies
    below perm[b]. All n! of them; n is expected to stay tiny."""
    n = poset.n
    for perm in permutations(range(n)):
        yield perm, tuple(poset.le(perm[a], perm[b]) for a in range(n) for b in range(n))


def automorphisms(poset: FinitePoset) -> list[tuple[int, ...]]:
    """All order-preserving permutations: those inducing the poset's own
    order table, the identity first."""
    tables = relabelings(poset)
    identity, own = next(tables)
    return [identity] + [perm for perm, key in tables if key == own]


# small stock orders used by tests and generators

def chain_poset(m: int) -> FinitePoset:
    return FinitePoset(m, tuple(mask_of(range(a, m)) for a in range(m)))


def chain_lattice(m: int) -> BoundedJoinSemilattice:
    return semilattice_from_poset(chain_poset(m))


def antichain_poset(m: int) -> FinitePoset:
    return FinitePoset(m, tuple(1 << a for a in range(m)))


def powerset_lattice(k: int) -> BoundedJoinSemilattice:
    """Subsets of a k-set in information order: more elements = less informative.

    Element index equals the subset mask; unit is the full set, zero the
    empty set. Both tables come from the subsets: b is above a iff b is a
    subset of a, and the join is intersection. The subsets of a are those
    of a' = a without its highest bit 2^h, and their unions with 2^h, so
    up[a] is up[a'] together with its copy shifted by 2^h.
    """
    n = 1 << k
    up = [1]
    for a in range(1, n):
        h = 1 << (a.bit_length() - 1)
        up.append(up[a - h] | up[a - h] << h)
    join = tuple(tuple(map(a.__and__, range(n))) for a in range(n))
    return BoundedJoinSemilattice(FinitePoset(n, tuple(up)), join, n - 1, 0)


def diamond_m3() -> BoundedJoinSemilattice:
    """Three incomparable midpoints: the canonical non-distributive lattice."""
    rows = [[True] * 5,
            [False, True, False, False, True],
            [False, False, True, False, True],
            [False, False, False, True, True],
            [False, False, False, False, True]]
    return semilattice_from_poset(FinitePoset.from_bool_table(rows))


def pentagon_n5() -> BoundedJoinSemilattice:
    """The pentagon: 0 < 1 < 2 < 4 and 0 < 3 < 4."""
    rows = [[True] * 5,
            [False, True, True, False, True],
            [False, False, True, False, True],
            [False, False, False, True, True],
            [False, False, False, False, True]]
    return semilattice_from_poset(FinitePoset.from_bool_table(rows))
