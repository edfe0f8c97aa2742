"""One JSON-compatible text format for algebra and Q-space files.

Tables are row-major, booleans are true/false, extractors and equivalences
are label-keyed maps. Labels are taken in sorted order when rebuilding a
value, and printing sorts keys, so parse/print round trips are bit-exact.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import InfoAlgebra, verify_axioms
from .duality import QSpace, q_space_report
from .equivalence import Equivalence, star_family
from .errors import CapExceeded, FormatError, NonCommutingError, StructureError
from .order import bound_table_witness, semilattice_from_poset, verify_poset, verify_semilattice
from .report import Report


def decode(text: str, where: str = "") -> object:
    """The JSON value of a document; FormatError, naming ``where``, when the
    text is not JSON (json.JSONDecodeError is a ValueError, and so is an
    integer over the interpreter's digit limit) or nests too deeply."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON{where}: {exc}") from exc


def _require(cond, message):
    if not cond:
        raise FormatError(message)


def _require_indices(values, limit, what):
    # JSON yields no int subclass but bool, so the type test is the entry
    # test below; only a row that fails it is rescanned for the first bad entry
    if set(map(type, values)) == {int} and min(values) >= 0 and max(values) < limit:
        return
    for v in values:
        _require(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < limit,
                 f"{what} entries must be indices below {limit}, got {v!r}")


def _int_table(doc, key, n, limit):
    table = doc[key]
    _require(isinstance(table, list) and len(table) == n, f"{key} must be an n-row table")
    for row in table:
        _require(isinstance(row, list) and len(row) == n, f"{key} rows must have length {n}")
        _require_indices(row, limit, key)
    return [list(row) for row in table]


def _bool_table(doc, key, n):
    table = doc[key]
    _require(isinstance(table, list) and len(table) == n, f"{key} must be an n-row table")
    for row in table:
        _require(isinstance(row, list) and len(row) == n, f"{key} rows must have length {n}")
        if set(map(type, row)) != {bool}:  # only a failing row is rescanned
            for v in row:
                _require(isinstance(v, bool), f"{key} entries must be booleans, got {v!r}")
    return [list(row) for row in table]


def _label_map(doc, key, n, limit):
    mapping = doc[key]
    _require(isinstance(mapping, dict) and mapping is not None, f"{key} must be an object")
    out = {}
    for label, arr in mapping.items():
        _require(isinstance(label, str), f"{key} labels must be strings")
        _require(isinstance(arr, list) and len(arr) == n, f"{key}[{label}] must have length {n}")
        _require_indices(arr, limit, f"{key}[{label}]")
        out[label] = tuple(arr)
    return out


@dataclass
class ParsedAlgebra:
    algebra: InfoAlgebra | None
    report: Report
    element_labels: list[str] | None


def _size(doc, cap, what, least):
    n = doc["n"]
    _require(isinstance(n, int) and not isinstance(n, bool) and n >= least,
             "n must be a positive integer" if least else "n must be a non-negative integer")
    if cap is not None and n > cap:
        raise CapExceeded(f"{what} of {n} exceeds cap {cap}")
    return n


def parse_algebra(text: str, lenient: bool = False, cap: int | None = None) -> ParsedAlgebra:
    """Parse and verify an algebra document.

    Format problems raise FormatError; a carrier larger than cap raises
    CapExceeded before any table is read; semantic problems (order or join
    laws, axiom failures) come back in the report with algebra=None when
    the tables are too broken to build on.
    """
    return algebra_from_doc(decode(text), lenient, cap)


def algebra_from_doc(doc, lenient: bool = False, cap: int | None = None) -> ParsedAlgebra:
    """parse_algebra on an already decoded document."""
    _require(isinstance(doc, dict), "document must be an object")
    known = {"n", "leq", "join", "unit", "zero", "extractors", "meet", "labels"}
    _require(set(doc) <= known, f"unknown keys {sorted(set(doc) - known)}")
    for key in ("n", "unit", "zero", "extractors"):
        _require(key in doc, f"missing key {key!r}")
    n = _size(doc, cap, "carrier", 1)
    _require(("leq" in doc) != ("join" in doc), "give exactly one of leq or join")
    for key in ("unit", "zero"):
        v = doc[key]
        _require(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n,
                 f"{key} must be an index below {n}")
    ext = _label_map(doc, "extractors", n, n)
    arrays = list(ext.values())
    if len(set(arrays)) != len(arrays):
        dupl = next(a for a in arrays if arrays.count(a) > 1)
        raise FormatError(f"duplicate extractor maps under distinct labels: {list(dupl)}")
    element_labels = None
    if "labels" in doc:
        labels = doc["labels"]
        _require(isinstance(labels, list) and len(labels) == n
                 and all(isinstance(s, str) for s in labels),
                 "labels must be a list of n strings")
        element_labels = list(labels)

    report = Report()
    if "leq" in doc:
        rows = _bool_table(doc, "leq", n)
        poset_report = verify_poset(rows)
        report.items.extend(poset_report.items)
        if not poset_report.ok:
            return ParsedAlgebra(None, report, element_labels)
        poset = poset_report.poset
        try:
            sl = semilattice_from_poset(poset)
        except StructureError as exc:
            if exc.witness is not None:  # else no least element: bounds_match fails
                report.add("joins_exist", False, exc.witness)
                return ParsedAlgebra(None, report, element_labels)
        report.add("joins_exist", True)
        bounds = (poset.bottom(), poset.top())
        bounds_ok = bounds == (doc["unit"], doc["zero"])
        report.add("bounds_match", bounds_ok, bounds)
        if not bounds_ok:
            return ParsedAlgebra(None, report, element_labels)
    else:
        join = _int_table(doc, "join", n, n)
        sl_report = verify_semilattice(join, doc["unit"], doc["zero"])
        report.items.extend(sl_report.items)
        if not sl_report.ok:
            return ParsedAlgebra(None, report, element_labels)
        sl = sl_report.semilattice

    if "meet" in doc:
        meet = _int_table(doc, "meet", n, n)
        w = bound_table_witness(sl.poset.down, meet)
        report.add("meet_is_greatest_lower_bound", w is None, w)
        if w is not None:
            return ParsedAlgebra(None, report, element_labels)

    labels = tuple(sorted(ext))
    algebra = InfoAlgebra(sl, tuple(ext[lab] for lab in labels), labels)
    report.items.extend(verify_axioms(algebra, require_closure=not lenient).items)
    return ParsedAlgebra(algebra, report, element_labels)


@dataclass
class ParsedQSpace:
    space: QSpace | None
    report: Report


def parse_qspace(text: str, cap: int | None = None) -> ParsedQSpace:
    """Parse and verify a Q-space document; like parse_algebra, a space of
    more than cap points raises CapExceeded before any table is read, and
    an order with more than cap up-sets raises it before the family is
    checked."""
    return qspace_from_doc(decode(text), cap)


def qspace_from_doc(doc, cap: int | None = None) -> ParsedQSpace:
    """parse_qspace on an already decoded document."""
    _require(isinstance(doc, dict), "document must be an object")
    known = {"n", "leq", "equivalences"}
    _require(set(doc) <= known, f"unknown keys {sorted(set(doc) - known)}")
    for key in known:
        _require(key in doc, f"missing key {key!r}")
    n = _size(doc, cap, "point set", 0)
    rows = _bool_table(doc, "leq", n)
    eqmap = _label_map(doc, "equivalences", n, n)

    report = Report()
    poset_report = verify_poset(rows)
    report.items.extend(poset_report.items)
    if not poset_report.ok:
        return ParsedQSpace(None, report)
    poset = poset_report.poset
    # reconstruct's cap, checked before the report saturates every up-set
    if cap is not None and len(poset.up_set_index) > cap:
        raise CapExceeded(f"{len(poset.up_set_index)} up-sets exceed the cap {cap}")
    labels = sorted(eqmap)
    members = [Equivalence(n, eqmap[lab]) for lab in labels]
    try:
        eqs = star_family(members, labels, n=n)
    except (NonCommutingError, StructureError) as exc:
        report.add("star_family", False, getattr(exc, "witness", str(exc)))
        return ParsedQSpace(None, report)
    report.add("star_family", True)
    space = QSpace(poset, eqs)
    report.items.extend(q_space_report(space).items)
    return ParsedQSpace(space if report.ok else None, report)


def algebra_doc(a: InfoAlgebra, element_labels=None) -> dict:
    doc = {
        "n": a.n,
        "join": [list(row) for row in a.sl.join],
        "unit": a.unit,
        "zero": a.zero,
        "extractors": {lab: list(arr) for lab, arr in zip(a.labels, a.extractors)},
    }
    if element_labels is not None:
        doc["labels"] = list(element_labels)
    return doc


def qspace_doc(s: QSpace) -> dict:
    return {
        "n": s.poset.n,
        "leq": s.poset.bool_table(),
        "equivalences": {lab: list(eq.block_of)
                         for lab, eq in zip(s.eqs.labels, s.eqs.members)},
    }


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
