"""Command-line front end.

Exit codes: 0 success, 1 semantic failure (a law or precondition does not
hold), 2 I/O or parse failure. All commands are deterministic.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from . import files
from .algebra import AlgebraMorphism, InfoAlgebra, is_homomorphism
from .atoms import atoms as atom_set
from .atoms import classify
from .duality import dualize, reconstruct, round_trip_algebra, round_trip_space
from .errors import DEFAULT_CAP, FormatError, InfAlgError
from .generators import (check_q_space_limit, enumerate_algebras, enumerate_q_spaces,
                         gen_lattice_valued, gen_multivariate, gen_string,
                         lattice_valued_points, string_elements)
from .order import bits, chain_lattice, up_sets
from .report import Report
from .semigroup import close, compose

CAP_ENV = "INFALG_CAP"


def _cap(args) -> int:
    cap = args.cap
    if cap is None:
        env = os.environ.get(CAP_ENV, str(DEFAULT_CAP))
        try:
            cap = int(env)
        except ValueError as exc:
            raise FormatError(f"{CAP_ENV} must be an integer, got {env!r}") from exc
    if cap < 0:
        raise FormatError(f"size cap must be non-negative, got {cap}")
    return cap


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def _write_out(args, text: str) -> None:
    if getattr(args, "output", None):
        try:
            with open(args.output, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise FormatError(f"cannot write {args.output}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_report(args, report: Report) -> None:
    if args.format == "json":
        payload = {"ok": report.ok,
                   "items": [{"name": i.name, "ok": i.ok,
                              "witness": _jsonable(i.witness)} for i in report.items]}
        print(json.dumps(payload, sort_keys=True))
    else:
        print(report.format())


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, str)):
        return value
    return repr(value)


def _load_algebra(args, text: str, lenient: bool = False) -> tuple[InfoAlgebra, list | None]:
    return _valid_algebra(files.parse_algebra(text, lenient=lenient, cap=_cap(args)))


def _valid_algebra(parsed: files.ParsedAlgebra) -> tuple[InfoAlgebra, list | None]:
    parsed.report.require("invalid algebra file")
    return parsed.algebra, parsed.element_labels


def cmd_verify(args) -> int:
    parsed = files.parse_algebra(_read(args.path), lenient=args.lenient, cap=_cap(args))
    _emit_report(args, parsed.report)
    return 0 if parsed.report.ok else 1


def cmd_close(args) -> int:
    a, element_labels = _load_algebra(args, _read(args.path), lenient=True)
    cap = _cap(args)
    labels = list(a.labels)
    arrays = [tuple(arr) for arr in a.extractors]
    if args.with_identity:
        ident = tuple(range(a.n))
        if ident not in arrays:
            label = "id"
            while label in labels:
                label += "'"
            arrays.append(ident)
            labels.append(label)
    arrays, labels = close(arrays, labels, compose, ".", cap)
    closed = InfoAlgebra(a.sl, tuple(arrays), tuple(labels))
    _write_out(args, files.dumps(files.algebra_doc(closed, element_labels)))
    return 0


def cmd_dualize(args) -> int:
    a, _ = _load_algebra(args, _read(args.path))
    space = dualize(a)
    _write_out(args, files.dumps(files.qspace_doc(space)))
    return 0


def _upset_label(mask: int) -> str:
    return "{" + ",".join(str(b) for b in bits(mask)) + "}"


def cmd_reconstruct(args) -> int:
    parsed = files.parse_qspace(_read(args.path), cap=_cap(args))
    parsed.report.require("invalid Q-space file")
    algebra = reconstruct(parsed.space, cap=_cap(args))
    labels = [_upset_label(m) for m in up_sets(parsed.space.poset)]
    _write_out(args, files.dumps(files.algebra_doc(algebra, labels)))
    return 0


def cmd_roundtrip(args) -> int:
    doc = files.decode(_read(args.path))
    report = Report()
    if isinstance(doc, dict) and "extractors" in doc:
        a, _ = _valid_algebra(files.algebra_from_doc(doc, cap=_cap(args)))
        rt = round_trip_algebra(a)
        report.add("isomorphism", True)
        _emit_report(args, report)
        if args.format != "json":
            print("element map:", list(rt.morphism.f))
            print("extractor map:", {a.labels[i]: rt.space.eqs.labels[g]
                                     for i, g in enumerate(rt.morphism.g)})
    else:
        parsed = files.qspace_from_doc(doc, cap=_cap(args))
        parsed.report.require("invalid Q-space file")
        rt = round_trip_space(parsed.space, cap=_cap(args))
        report.add("q_isomorphism", True)
        _emit_report(args, report)
        if args.format != "json":
            print("point map:", list(rt.morphism.alpha))
    return 0


def cmd_atoms(args) -> int:
    a, element_labels = _load_algebra(args, _read(args.path))
    ats = atom_set(a)
    if args.format == "json":
        print(json.dumps({"atoms": list(ats)}))
    else:
        names = [element_labels[x] if element_labels else str(x) for x in ats]
        print("atoms:", " ".join(names) if names else "(none)")
    return 0


def cmd_classify(args) -> int:
    a, _ = _load_algebra(args, _read(args.path))
    rep = classify(a)
    if rep.completely_atomistic:
        text = "completely atomistic"
    elif rep.atomistic:
        text = "atomistic"
    else:
        text = "atomic"
    if args.format == "json":
        print(json.dumps({"atomic": rep.atomic, "atomistic": rep.atomistic,
                          "completely_atomistic": rep.completely_atomistic,
                          "atoms": list(rep.atoms)}, sort_keys=True))
    else:
        print(text)
    return 0


def cmd_gen(args) -> int:
    cap = _cap(args)
    if args.kind == "string":
        if len(args.params) != 2:
            raise FormatError(f"gen string takes two parameters K N, got {len(args.params)}")
        algebra = gen_string(args.params[0], args.params[1], cap=cap)
        labels = string_elements(args.params[0], args.params[1])
    elif args.kind == "multivariate":
        sa = gen_multivariate(args.params, cap=cap)
        algebra = sa.to_info_algebra()
        labels = None
    else:
        if args.chain < 1:
            raise FormatError(f"--chain must be a positive integer, got {args.chain}")
        lattice_valued_points(args.params, args.chain, cap)
        algebra = gen_lattice_valued(args.params, chain_lattice(args.chain), cap=cap)
        labels = None
    _write_out(args, files.dumps(files.algebra_doc(algebra, labels)))
    return 0


def cmd_check_hom(args) -> int:
    a, _ = _load_algebra(args, _read(args.path_a))
    b, _ = _load_algebra(args, _read(args.path_b))
    doc = files.decode(_read(args.mapfile), " in map file")
    if not (isinstance(doc, dict) and "f" in doc and "g" in doc):
        raise FormatError("map file must carry keys f and g")
    f = doc["f"]
    if not (isinstance(f, list) and len(f) == a.n
            and all(isinstance(v, int) and not isinstance(v, bool) and 0 <= v < b.n
                    for v in f)):
        raise FormatError("f must be a list of codomain indices, one per element")
    gmap = doc["g"]
    if not (isinstance(gmap, dict) and set(gmap) == set(a.labels)
            and all(v in b.labels for v in gmap.values())):
        raise FormatError("g must map every domain extractor label to a codomain label")
    g = tuple(b.labels.index(gmap[lab]) for lab in a.labels)
    report = is_homomorphism(AlgebraMorphism(tuple(f), g), a, b)
    _emit_report(args, report)
    return 0 if report.ok else 1


def cmd_enumerate(args) -> int:
    for name, size in (("max_n", args.max_n), ("--posets", args.posets)):
        if size < 0:
            raise FormatError(f"{name} must be a non-negative integer, got {size}")
    check_q_space_limit(args.posets)
    count = 0
    for a in enumerate_algebras(args.max_n):
        count += 1
        print(f"algebra {count}: n={a.n} extractors={len(a.extractors)}")
    total_spaces = 0
    if args.posets:
        for s in enumerate_q_spaces(args.posets):
            total_spaces += 1
            print(f"qspace {total_spaces}: points={s.poset.n} "
                  f"equivalences={len(s.eqs.members)}")
    print(f"total: {count} algebras, {total_spaces} q-spaces")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: each parse_args call returns a fresh namespace."""
    parser = argparse.ArgumentParser(prog="infalg")
    parser.add_argument("--cap", type=int, default=None,
                        help=f"size cap (default {DEFAULT_CAP}, env {CAP_ENV})")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="check the axioms of an algebra file")
    p.add_argument("path")
    p.add_argument("--lenient", action="store_true",
                   help="skip the composition-closure requirement")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("close", help="close the extractor family under composition")
    p.add_argument("path")
    p.add_argument("--with-identity", action="store_true")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_close)

    p = sub.add_parser("dualize", help="write the dual Q-space of a distributive algebra")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_dualize)

    p = sub.add_parser("reconstruct", help="rebuild the algebra of a Q-space file")
    p.add_argument("path")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="run both dual directions and verify the isomorphism")
    p.add_argument("path")
    p.set_defaults(func=cmd_roundtrip)

    p = sub.add_parser("atoms", help="list the atoms of an algebra file")
    p.add_argument("path")
    p.set_defaults(func=cmd_atoms)

    p = sub.add_parser("classify", help="atomic / atomistic / completely atomistic")
    p.add_argument("path")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("gen", help="generate a stock algebra file")
    p.add_argument("kind", choices=("string", "multivariate", "lattice"))
    p.add_argument("params", type=int, nargs="+",
                   help="string: K N; multivariate/lattice: domain sizes")
    p.add_argument("--chain", type=int, default=2,
                   help="value-chain height for the lattice kind")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("check-hom", help="check a morphism file between two algebras")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.add_argument("mapfile")
    p.set_defaults(func=cmd_check_hom)

    p = sub.add_parser("enumerate", help="stream small algebras and Q-spaces")
    p.add_argument("max_n", type=int)
    p.add_argument("--posets", type=int, default=0,
                   help="also stream Q-spaces up to this point count")
    p.set_defaults(func=cmd_enumerate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InfAlgError as exc:
        print(f"failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())  # unreachable: the tests call main, never run this module as a script
