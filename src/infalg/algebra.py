"""Information algebras: a bounded join-semilattice with extraction operators.

An extraction operator is a self-map that fixes the contradiction, never
adds information, and satisfies the combination law
e(e(x) . y) = e(x) . e(y). The listed family must commute pairwise and,
unless a lenient check is requested, be closed under composition.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from operator import getitem

from .equivalence import Equivalence, star
from .errors import NonCommutingError, StructureError
from .order import (BoundedJoinSemilattice, FinitePoset, is_distributive, join_semilattice,
                    semilattice_from_poset, try_lattice)
from .report import CheckItem, Report
from .semigroup import compose, first_row_witness, grid, homomorphism_witness, table, unlisted


def _check_composition(composition, k: int) -> None:
    """A supplied label table has k rows of k entries, each in range(k);
    StructureError names the first row that is missing or of another
    length, else the first (k, l) entry outside range(k)."""
    i = next((i for i, row in enumerate(composition) if i == k or len(row) != k),
             len(composition))
    if (i, len(composition)) != (k, k):
        raise StructureError(f"composition row {i} is not one of {k} rows of {k} entries",
                             witness=i)
    w = next(((i, j) for i, row in enumerate(composition) for j, v in enumerate(row)
              if v not in range(k)), None)
    if w is not None:
        raise StructureError(f"composition entry ({w[0]},{w[1]}) is outside range({k})",
                             witness=w)


@dataclass(frozen=True)
class InfoAlgebra:
    sl: BoundedJoinSemilattice
    extractors: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    # optional supplied label-level composition table, for a family where
    # distinct labels can denote one map and a table resolved from the
    # arrays would pick one label: extraction_image and atom_representation
    # restrict the family, SetAlgebra.to_info_algebra supplies its own
    # label_table, and ideal_completion, a relabeling, passes its source's on
    composition: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        """Labels are distinct, one per extractor, and each extractor is a tuple
        of n ints in range(n): StructureError names (k, "type"), (k, "length")
        or the first bad (k, x); only a row failing a C-speed test is rescanned."""
        if len(set(self.labels)) != len(self.labels):
            raise StructureError(f"duplicate labels in {self.labels}")
        if len(self.labels) != len(self.extractors):
            raise StructureError("extractor/label count mismatch")
        n, exs = self.sl.n, self.extractors
        w = next(((k, "length" if isinstance(e, tuple) else "type") for k, e in enumerate(exs)
                  if not isinstance(e, tuple) or len(e) != n), None)
        if w is None and not all({*map(type, e)} == {int} and 0 <= min(e) and max(e) < n
                                 for e in exs):
            w = next(((k, x) for k, e in enumerate(exs) for x, v in enumerate(e)
                      if not (isinstance(v, int) and 0 <= v < n)), None)
        if w is not None:
            raise StructureError(f"extractor {w[0]} is not a tuple of {n} indices", witness=w)
        if self.composition is not None:
            _check_composition(self.composition, len(self.extractors))

    @property
    def n(self) -> int:
        return self.sl.n

    @property
    def unit(self) -> int:
        return self.sl.unit

    @property
    def zero(self) -> int:
        return self.sl.zero

    @property
    def poset(self) -> FinitePoset:
        return self.sl.poset

    def join(self, a: int, b: int) -> int:
        return self.sl.join[a][b]

    def le(self, a: int, b: int) -> bool:
        return self.sl.poset.le(a, b)

    def apply(self, k: int, x: int) -> int:
        return self.extractors[k][x]

    @cached_property
    def label_table(self) -> tuple[tuple[int | None, ...], ...]:
        """The supplied composition table, else the one resolved from the arrays."""
        if self.composition is not None:
            return self.composition
        return table(self.extractors)

    def compose_label(self, k: int, l: int) -> int:
        """Label of the composite map: first l, then k."""
        idx = self.label_table[k][l]
        if idx is None:
            raise StructureError(f"composite of extractors ({k},{l}) is not listed",
                                 witness=(k, l))
        return idx

    @cached_property
    def cdf(self) -> CdfReport:
        """Distributive-algebra verdict: the lattice (every meet exists, as the
        unit is the least element) is distributive, and every extractor
        preserves binary meets. Certificate, on the irreducible rows u of a
        distributive lattice, where x /\\ m is column m of
        ``irreducible_meets`` and u sends meets to unions: e preserves every
        meet iff u[e(x /\\ m)] == u[e(x)] | u[e(m)] for all x and every
        meet-irreducible m. Each y but the top is the meet of the m above
        it, so e(x /\\ y) == e(x) /\\ e(y) follows by induction over them,
        and for the top, column m at x = top gives e(m) <= e(top). Only a
        failing certificate builds the meet table, whose row scan names the
        first witness."""
        sl = self.sl
        ok, w = is_distributive(sl)
        if not ok:
            return CdfReport(False, "not_distributive", w)
        columns = tuple(zip(sl.meet_irreducibles, sl.irreducible_meets))
        for k, e in enumerate(self.extractors):
            ue = compose(sl.irreducible_rows, e)
            if not all(compose(ue, col) == tuple(map(ue[m].__or__, ue)) for m, col in columns):
                lat = try_lattice(sl)
                return CdfReport(False, "extractor_breaks_meets",
                                 (k, *homomorphism_witness(e, lat.meet, lat.meet)))
        return CdfReport(True, None, None)


@dataclass(frozen=True)
class AlgebraMorphism:
    """Element map f plus extractor-label map g; checked by is_homomorphism."""

    f: tuple[int, ...]
    g: tuple[int, ...]


def make_algebra(poset: FinitePoset, extractors, labels=None,
                 composition=None) -> InfoAlgebra:
    """Convenience constructor: join table derived from the order."""
    sl = semilattice_from_poset(poset)
    extractors = tuple(tuple(e) for e in extractors)
    if labels is None:
        labels = tuple(f"e{i}" for i in range(len(extractors)))
    return InfoAlgebra(sl, extractors, tuple(labels), composition)


def combination_rows(join, e):
    """Rows of the combination law e(e(x) . y) = e(x) . e(y) for one array e,
    keyed (x,) and running over y, for first_row_witness. Row x depends on x
    only through e[x], so one row is built per distinct value, at the first
    x that takes it: equal rows fail alike, and the first witness is kept."""
    seen = set()
    for x, v in enumerate(e):
        if v not in seen:
            seen.add(v)
            yield (x,), compose(e, join[v]), compose(join[v], e)


_ITEMS = ("well_formed", "zero_fixed", "extraction_dominated", "extraction_combination",
          "extractors_commute", "extraction_idempotent", "unit_fixed", "composition_closed")
_PASSING = {name: CheckItem(name, True) for name in _ITEMS}


def _member_witnesses(sl: BoundedJoinSemilattice, e) -> tuple:
    """The failing per-extractor items of one array e on sl, as (name,
    witness) pairs, e's index left out of the witness: () for a fixed bound
    (zero_fixed, unit_fixed), else the failing (x,) or (x, y)
    (extraction_dominated, extraction_combination, extraction_idempotent)."""
    n, join = sl.n, sl.join
    found = (("zero_fixed", None if e[sl.zero] == sl.zero else ()),
             ("extraction_dominated", first_row_witness(
                 [((), tuple(map(getitem, compose(join, e), range(n))), tuple(range(n)))])),
             ("extraction_combination", first_row_witness(combination_rows(join, e))),
             ("extraction_idempotent", first_row_witness([((), compose(e, e), e)])),
             ("unit_fixed", None if e[sl.unit] == sl.unit else ()))
    return tuple((name, w) for name, w in found if w is not None)


def verify_axioms(a: InfoAlgebra, require_closure: bool = True) -> Report:
    """Per-axiom verdicts with minimal witnesses.

    Checks, per extractor: contradiction fixed, extraction dominated by its
    argument, the combination law, idempotence, unit fixed; across the
    family: pairwise commutation and (strict mode only) closure under
    composition. A lenient check omits only the closure item.

    well_formed always holds: InfoAlgebra checks its arrays on construction.
    The five per-extractor items read only the lattice and one array, so
    their failing witnesses are memoized on the lattice ``a.sl``, which
    every enumerated family on one base shares, in its ``member_witnesses``
    cache keyed by the array; an item's witness is the first k whose cached
    witness fails, k put in front. A report is a fresh list in which each
    passing item is a shared module-level one.
    """
    exs, ks = a.extractors, range(len(a.extractors))
    # each ordered pair is composed once: composites[k][l] is e_k after e_l
    composites = grid(exs)
    found = {"extractors_commute": first_row_witness(((k, l), composites[k][l], composites[l][k])
                                                     for k in ks for l in ks)}
    if require_closure:
        found["composition_closed"] = unlisted(table(exs, composites))
    cache = vars(a.sl).setdefault("member_witnesses", {})
    for k, e in enumerate(exs):
        if e not in cache:
            cache[e] = _member_witnesses(a.sl, e)
        for name, w in cache[e]:
            found.setdefault(name, (k, *w) if w else k)
    names = _ITEMS if require_closure else _ITEMS[:-1]
    report = Report([_PASSING[name] if found.get(name) is None
                     else CheckItem(name, False, found[name]) for name in names])

    if a.composition is not None:
        w = next(((k, l) for k in ks for l in ks
                  if a.extractors[a.composition[k][l]] != composites[k][l]), None)
        report.add("composition_table_consistent", w is None, w)
    return report


def kernel(a: InfoAlgebra, k: int) -> Equivalence:
    """Partition of the carrier by equal image under extractor k."""
    return Equivalence(a.n, a.extractors[k])


def kernel_of_array(arr) -> Equivalence:
    return Equivalence(len(arr), arr)


def check_kernel_theorem(a: InfoAlgebra) -> bool:
    """Star of two kernels equals the kernel of the composite, for every
    pair (k, l), scanned in order. A pair's verdict reads only the two
    arrays f and g: their kernels, star product and composite are
    relations on the carrier, whatever its order. So it is memoized on the
    lattice ``a.sl``, which every enumerated family on one base shares, in
    its ``kernel_pair_verdicts`` cache keyed by (f, g)."""
    verdicts = vars(a.sl).setdefault("kernel_pair_verdicts", {})
    for f in a.extractors:
        for g in a.extractors:
            ok = verdicts.get((f, g))
            if ok is None:
                ok = verdicts[f, g] = _kernel_pair(a.n, f, g)
            if not ok:
                return False
    return True


def _kernel_pair(n: int, f, g) -> bool:
    """check_kernel_theorem's verdict on one pair, uncached."""
    try:
        prod = star(Equivalence(n, f), Equivalence(n, g))
    except NonCommutingError:
        return False
    return prod == kernel_of_array(compose(f, g))


@dataclass(frozen=True)
class CdfReport:
    """Outcome of the distributive-algebra test."""

    ok: bool
    reason: str | None
    witness: object


def is_distributive_cdf(a: InfoAlgebra) -> CdfReport:
    """The verdict of InfoAlgebra.cdf, computed on the first call and cached
    on the algebra."""
    return a.cdf


def is_homomorphism(m: AlgebraMorphism, a: InfoAlgebra, b: InfoAlgebra,
                    check_meets: bool | None = None) -> Report:
    """Check the homomorphism laws; meets are required for distributive inputs.

    check_meets=None decides automatically: binary meets of f-images are
    compared exactly when both algebras are distributive. Both carriers are
    lattices, so the meet tables always exist; the flag decides only whether
    the law is required.
    """
    report = Report()
    ok_shape = (len(m.f) == a.n and all(0 <= v < b.n for v in m.f)
                and len(m.g) == len(a.extractors)
                and all(0 <= v < len(b.extractors) for v in m.g))
    report.add("maps_total", ok_shape)
    if not ok_shape:
        return report

    f = m.f
    w = homomorphism_witness(f, a.sl.join, b.sl.join)
    report.add("preserves_join", w is None, w)

    ok = f[a.unit] == b.unit and f[a.zero] == b.zero
    report.add("preserves_bounds", ok, None if ok else (f[a.unit], f[a.zero]))

    # g[k l] against g(k) g(l); an unlisted composite on either side fails
    ks, g = range(len(a.extractors)), m.g
    ta, tb = a.label_table, b.label_table
    w = next(((k, l) for k in ks for l in ks
              if None in (ta[k][l], tb[g[k]][g[l]]) or g[ta[k][l]] != tb[g[k]][g[l]]), None)
    report.add("preserves_composition", w is None, w)

    # row k over x: f[e_k[x]] against e'_g(k)[f[x]]
    w = first_row_witness(((k,), compose(f, e), compose(b.extractors[g[k]], f))
                          for k, e in enumerate(a.extractors))
    report.add("extraction_compatible", w is None, w)

    if check_meets is None:
        check_meets = is_distributive_cdf(a).ok and is_distributive_cdf(b).ok
    if check_meets:
        w = homomorphism_witness(f, try_lattice(a.sl).meet, try_lattice(b.sl).meet)
        report.add("preserves_meet", w is None, w)
    return report


def is_isomorphism(m: AlgebraMorphism, a: InfoAlgebra, b: InfoAlgebra) -> bool:
    """Bijective f and g and the homomorphism laws without meets, which a
    join-preserving bijection keeps: f(x) <= f(y) iff f(x \\/ y) = f(y) iff
    x \\/ y = y, so it is an order isomorphism (Davey & Priestley, Introduction
    to Lattices and Order, 2002, ch. 1-2). Inverse compatibility follows."""
    return (sorted(m.f) == list(range(b.n))
            and sorted(m.g) == list(range(len(b.extractors)))
            and is_homomorphism(m, a, b, check_meets=False).ok)


def extraction_image(a: InfoAlgebra, k: int) -> tuple[InfoAlgebra, AlgebraMorphism]:
    """The subalgebra on the image of extractor k, with its inclusion morphism.

    The image is closed under combination and under every listed extractor;
    the whole label family acts on it (possibly with collisions), so the
    composition table is inherited. StructureError names a k out of range.
    """
    ks = range(len(a.extractors))
    if k not in ks:
        raise StructureError(f"k = {k} is outside range({len(ks)})", witness=k)
    image = sorted(set(a.extractors[k]))
    sl, extractors = _restriction(a, image, ks)
    composition = tuple(tuple(a.compose_label(i, j) for j in ks) for i in ks)
    sub = InfoAlgebra(sl, extractors, a.labels, composition)
    embed = AlgebraMorphism(tuple(image), tuple(ks))
    return sub, embed


def _restriction(a: InfoAlgebra, carrier, ks):
    """The semilattice and the extractors ks of a, restricted to a carrier
    sequence in any order, element i of the result being carrier[i];
    StructureError names the first pair, extractor value or bound that falls
    outside it."""
    pos = {x: i for i, x in enumerate(carrier)}
    join = []
    for x in carrier:
        row = tuple(map(pos.get, compose(a.sl.join[x], carrier)))
        if None in row:
            y = carrier[row.index(None)]
            raise StructureError(f"image not closed under join at ({x},{y})", witness=(x, y))
        join.append(row)
    extractors = []
    for l in ks:
        arr = tuple(map(pos.get, compose(a.extractors[l], carrier)))
        if None in arr:
            x = carrier[arr.index(None)]
            raise StructureError(f"image not closed under extractor {l} at {x}", witness=(l, x))
        extractors.append(arr)
    bound = next((x for x in (a.unit, a.zero) if x not in pos), None)
    if bound is not None:
        raise StructureError(f"image misses the bound {bound}", witness=bound)
    return join_semilattice(join, pos[a.unit], pos[a.zero]), tuple(extractors)


def ideal_completion(a: InfoAlgebra) -> tuple[InfoAlgebra, AlgebraMorphism]:
    """The algebra of all ideals (join-closed down-sets) with lifted operations.

    On a finite carrier every ideal is the down-set of the join of its
    members (Davey & Priestley, Introduction to Lattices and Order, 2002,
    ch. 2), so the ideals are the down rows, in ascending mask order, and
    the completion is the algebra relabeled by them: ideals combine to the
    down row of the join of their generators, and e sends down(x) to
    down(e(x)), as extractors are monotone. The embedding x -> down(x)
    inverts that listing. No down-set is listed, so no up-set cap applies.
    A relabeling preserves composition, so the source's table is kept.
    """
    order = sorted(range(a.n), key=a.poset.down.__getitem__)
    ks = range(len(a.extractors))
    sl, extractors = _restriction(a, order, ks)
    completion = InfoAlgebra(sl, extractors, a.labels, a.composition)
    # the inverse permutation of order: x -> the position of down(x)
    embed = tuple(sorted(range(a.n), key=order.__getitem__))
    return completion, AlgebraMorphism(embed, tuple(ks))


def dedupe_extractors(a: InfoAlgebra) -> tuple[InfoAlgebra, AlgebraMorphism]:
    """Merge extensionally equal extractor maps, keeping the first label.

    Restriction constructions can make distinct labels act identically;
    duals and representations need one label per map. The returned morphism
    (identity on elements, merge on labels) is a homomorphism onto the
    deduped algebra. A family whose deduped maps are not closed under
    composition is rejected with the first pair unlisted in its derived table.
    """
    arrays: list[tuple[int, ...]] = []
    labels: list[str] = []
    merge = []
    for arr, lab in zip(a.extractors, a.labels):
        if arr not in arrays:
            arrays.append(arr)
            labels.append(lab)
        merge.append(arrays.index(arr))
    deduped = InfoAlgebra(a.sl, tuple(arrays), tuple(labels))
    w = unlisted(deduped.label_table)
    if w is not None:
        raise StructureError(f"composite of extractors ({w[0]},{w[1]}) is not listed",
                             witness=w)
    return deduped, AlgebraMorphism(tuple(range(a.n)), tuple(merge))


def image_algebra(m: AlgebraMorphism, a: InfoAlgebra, b: InfoAlgebra) -> InfoAlgebra:
    """The image of a homomorphism as a subalgebra of the codomain;
    StructureError names a map m.f or m.g whose length is not a's element or
    extractor count, else its first entry that is not one of b's."""
    for name, arr, size in (("f", m.f, a.n), ("g", m.g, len(a.extractors))):
        if len(arr) != size:
            raise StructureError(f"{name} has length {len(arr)}, expected {size}",
                                 witness=(name, min(len(arr), size)))
    for name, arr, limit in (("f", m.f, b.n), ("g", m.g, len(b.extractors))):
        i = next((i for i, v in enumerate(arr) if not 0 <= v < limit), None)
        if i is not None:
            raise StructureError(f"{name}[{i}] = {arr[i]} is outside range({limit})",
                                 witness=(name, i))
    gl = sorted(set(m.g))
    sl, extractors = _restriction(b, sorted(set(m.f)), gl)
    return InfoAlgebra(sl, extractors, tuple(b.labels[k] for k in gl))


def enumerate_homomorphisms(a: InfoAlgebra, b: InfoAlgebra,
                            check_meets: bool | None = None):
    """Exhaustive (f, g) search; intended for small carriers only."""
    n, nb = a.n, b.n
    ks, lbs = len(a.extractors), len(b.extractors)
    free = [x for x in range(n) if x not in (a.unit, a.zero)]
    for values in product(range(nb), repeat=len(free)):
        f = [0] * n
        f[a.unit], f[a.zero] = b.unit, b.zero
        for x, v in zip(free, values):
            f[x] = v
        if homomorphism_witness(f, a.sl.join, b.sl.join) is not None:
            continue
        for g in product(range(lbs), repeat=ks):
            m = AlgebraMorphism(tuple(f), g)
            if is_homomorphism(m, a, b, check_meets=check_meets).ok:
                yield m


def identity_morphism(a: InfoAlgebra) -> AlgebraMorphism:
    return AlgebraMorphism(tuple(range(a.n)), tuple(range(len(a.extractors))))
