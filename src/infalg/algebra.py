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

from .equivalence import Equivalence, star
from .errors import NonCommutingError, StructureError
from .order import (BoundedJoinSemilattice, FinitePoset, is_distributive, join_semilattice,
                    semilattice_from_poset, try_lattice)
from .report import Report
from .semigroup import compose, first_row_witness, grid, homomorphism_witness, table, unlisted


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
        if len(set(self.labels)) != len(self.labels):
            raise StructureError(f"duplicate labels in {self.labels}")
        if len(self.labels) != len(self.extractors):
            raise StructureError("extractor/label count mismatch")

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


def combination_rows(join, extractors):
    """Rows of the combination law e(e(x) . y) = e(x) . e(y), keyed (k, x) and
    running over y, for first_row_witness. Row (k, x) depends on x only
    through e_k[x], so one row is built per distinct value, at the first x
    that takes it: equal rows fail alike, and the first witness is kept."""
    for k, e in enumerate(extractors):
        seen = set()
        for x, v in enumerate(e):
            if v not in seen:
                seen.add(v)
                yield (k, x), compose(e, join[v]), compose(join[v], e)


def verify_axioms(a: InfoAlgebra, require_closure: bool = True) -> Report:
    """Per-axiom verdicts with minimal witnesses.

    Checks, per extractor: contradiction fixed, extraction dominated by its
    argument, the combination law, idempotence, unit fixed; across the
    family: pairwise commutation and (strict mode only) closure under
    composition. A lenient check omits only the closure item.
    """
    report = Report()
    n = a.n
    ks = range(len(a.extractors))

    bad_shape = next(((k, "length") for k in ks if len(a.extractors[k]) != n), None)
    if bad_shape is None:
        bad_shape = next(((k, x) for k in ks for x in range(n)
                          if not 0 <= a.extractors[k][x] < n), None)
    report.add("well_formed", bad_shape is None, bad_shape)
    if bad_shape is not None:
        return report

    w = next((k for k in ks if a.apply(k, a.zero) != a.zero), None)
    report.add("zero_fixed", w is None, w)

    w = next(((k, x) for k in ks for x in range(n)
              if a.join(a.apply(k, x), x) != x), None)
    report.add("extraction_dominated", w is None, w)

    w = first_row_witness(combination_rows(a.sl.join, a.extractors))
    report.add("extraction_combination", w is None, w)

    # each ordered pair is composed once: composites[k][l] is e_k after e_l
    composites = grid(a.extractors)
    w = first_row_witness(((k, l), composites[k][l], composites[l][k]) for k in ks for l in ks)
    report.add("extractors_commute", w is None, w)

    w = first_row_witness(((k,), composites[k][k], e) for k, e in enumerate(a.extractors))
    report.add("extraction_idempotent", w is None, w)

    w = next((k for k in ks if a.apply(k, a.unit) != a.unit), None)
    report.add("unit_fixed", w is None, w)

    if require_closure:
        w = unlisted(table(a.extractors, composites))
        report.add("composition_closed", w is None, w)

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
