"""The benchmark's three workloads, their inputs and their known answers.

A workload's set-up imports the package afresh and writes its input files;
it returns a plan: a list of op groups, run in a seed-chosen order, each
group a sequence of ops that must stay in order. An op is one in-process
`infalg.cli.main([...])` call or one library call, timed from its start to
its verdict. Verdicts are checked after the clock stops, against known.py.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import sys
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from time import perf_counter_ns as clock

import known

PACKAGE_MODULES = ("cli", "files", "errors", "algebra", "set_algebra", "atoms", "duality",
                   "generators")


class SetupError(Exception):
    """The workload's inputs could not be produced."""


class Program:
    """A fresh import of the package under test.

    Calls look up functions on the modules at call time, so a tracer that
    rebinds module attributes sees them.
    """

    def __init__(self):
        for name in [m for m in sys.modules if m == "infalg" or m.startswith("infalg.")]:
            del sys.modules[name]
        for mod in PACKAGE_MODULES:
            setattr(self, mod, importlib.import_module("infalg." + mod))

    def cli_main(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:   # argparse rejects arguments this way
            return exc.code if isinstance(exc.code, int) else 2


@dataclass
class Sample:
    kind: str
    label: str
    ns: int
    status: str      # "ok", "wrong" or "failed"
    note: str = ""
    scale: float = 1.0  # machine speed correction, see run.py


@dataclass
class Pass:
    """Samples of one pass over the plan; sets the tracer's op id per op."""

    program: Program
    tracer: object = None
    samples: list = field(default_factory=list)
    count_problems: list = field(default_factory=list)

    def _next_op(self) -> None:
        if self.tracer is not None:
            self.tracer.op = len(self.samples)

    def _record(self, kind, label, ns, problem, exc=None) -> None:
        if exc is not None:
            self.samples.append(Sample(kind, label, ns, "failed", f"{type(exc).__name__}: {exc}"))
        elif problem:
            self.samples.append(Sample(kind, label, ns, "wrong", problem))
        else:
            self.samples.append(Sample(kind, label, ns, "ok"))

    def cli(self, kind, label, argv, check) -> None:
        """One CLI call; check(rc, stdout, stderr) returns a problem or None."""
        self._next_op()
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            t0 = clock()
            try:
                rc = self.program.cli_main(argv)
            except Exception as exc:    # an op that escapes main is a failed op
                self._record(kind, label, clock() - t0, None, exc)
                return
            ns = clock() - t0
        self._record(kind, label, ns, check(rc, out.getvalue(), err.getvalue()))

    def call(self, kind, label, fn, check) -> None:
        """One library call; the package's own errors are verdicts."""
        self._next_op()
        self._settle(kind, label, clock(), fn, check)

    def _settle(self, kind, label, t0, fn, check) -> None:
        try:
            result = fn()
        except self.program.errors.InfAlgError as exc:
            ns = clock() - t0
            self._record(kind, label, ns, f"raised {type(exc).__name__}: {exc}")
            return
        except Exception as exc:
            self._record(kind, label, clock() - t0, None, exc)
            return
        ns = clock() - t0
        self._record(kind, label, ns, check(result))

    def stream(self, kind, label, make_iter, op, check, check_end) -> None:
        """One op per yielded object, timed from the previous yield to its
        verdict; check_end sees the list of objects and judges the counts."""
        seen = []
        self._next_op()
        t0 = clock()
        try:
            for obj in make_iter():
                self._settle(kind, f"{label}[{len(seen)}]", t0, lambda: op(obj), check)
                seen.append(obj)
                self._next_op()
                t0 = clock()
        except Exception as exc:        # the generator itself raised
            self._record(kind, f"{label}[{len(seen)}]", clock() - t0, None, exc)
        problem = check_end(seen)
        if problem:
            self.count_problems.append(f"{label}: {problem}")


@dataclass
class Plan:
    groups: list            # callables taking a Pass
    largest: str            # label of the op on the workload's largest input
    setup_problems: list = field(default_factory=list)


# --- checks ------------------------------------------------------------------

def expect_rc(want: int, stdout_has: str = "", stderr_has: str = ""):
    def check(rc, out, err):
        if rc != want:
            return f"exit {rc}, expected {want}: {err.strip()[:200]}"
        if stdout_has and stdout_has not in out:
            return f"stdout lacks {stdout_has!r}"
        if stderr_has and stderr_has not in err:
            return f"stderr lacks {stderr_has!r}: {err.strip()[:200]}"
        return None
    return check


def expect_all_ok(rc, out, err):
    if rc != 0:
        return f"exit {rc}, expected 0"
    bad = [line for line in out.splitlines() if not line.startswith("ok ")]
    return f"unexpected report lines {bad[:3]}" if bad else None


def expect_file_n(path: str, n: int, key: str = "n"):
    def check(rc, out, err):
        if rc != 0:
            return f"exit {rc}, expected 0: {err.strip()[:200]}"
        with open(path, encoding="utf-8") as fh:
            got = json.load(fh)[key]
        got = len(got) if isinstance(got, dict) else got
        return None if got == n else f"{path}: {key} is {got}, expected {n}"
    return check


def _write(path: str, doc_or_text) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        if isinstance(doc_or_text, str):
            fh.write(doc_or_text)
        else:
            json.dump(doc_or_text, fh)
    return path


def _generate(program: Program, work: str, fam: known.Family) -> str:
    path = os.path.join(work, fam.name + ".json")
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        rc = program.cli_main(["gen", *fam.gen_args, "-o", path])
    if rc != 0:
        raise SetupError(f"gen {' '.join(fam.gen_args)} exited {rc}: {err.getvalue().strip()}")
    return path


def _load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _is_order_isomorphism(f, source, target) -> bool:
    """f is a bijection with x <= y iff f(x) <= f(y), read off join tables."""
    n = source.n
    if target.n != n or sorted(f) != list(range(n)):
        return False
    return all((source.join(x, y) == y) == (target.join(f[x], f[y]) == f[y])
               for x in range(n) for y in range(n))


# --- verify: the file read and write paths -----------------------------------

VERIFY_FAMILIES = (known.S25, known.S26, known.S33, known.M22, known.M23,
                   known.L3C3, known.L22C3)


def setup_verify(program: Program, work: str, rng) -> Plan:
    groups = []
    base = {fam.name: _generate(program, work, fam) for fam in VERIFY_FAMILIES}

    def single(kind, label, argv, check):
        groups.append(lambda p: p.cli(kind, label, argv, check))

    for fam in VERIFY_FAMILIES:
        out = os.path.join(work, "gen_" + fam.name + ".json")
        single("gen", "gen " + " ".join(fam.gen_args), ["gen", *fam.gen_args, "-o", out],
               expect_file_n(out, fam.n))
    # Known defect: the arity of `gen string` is never checked, so this
    # escapes as an IndexError today. Its known answer is exit 2.
    single("gen", "gen string 2", ["gen", "string", "2", "-o", os.path.join(work, "bad.json")],
           expect_rc(2))

    for fam in VERIFY_FAMILIES:
        path = base[fam.name]
        doc = _load(path)
        join = doc.pop("join")
        doc["leq"] = [[join[a][b] == b for b in range(fam.n)] for a in range(fam.n)]
        leq_path = _write(os.path.join(work, fam.name + ".leq.json"), doc)
        single("verify", f"verify {fam.name}", ["verify", path], expect_all_ok)
        single("verify", f"verify {fam.name}.leq", ["verify", leq_path], expect_all_ok)
        single("classify", f"classify {fam.name}", ["classify", path],
               lambda rc, out, err, want=fam.classification:
               None if rc == 0 and out.strip() == want
               else f"exit {rc}, printed {out.strip()!r}, expected {want!r}")
        single("atoms", f"atoms {fam.name}", ["--format", "json", "atoms", path],
               lambda rc, out, err, want=fam.atoms:
               None if rc == 0 and len(json.loads(out)["atoms"]) == want
               else f"exit {rc}, expected {want} atoms: {out[:100]!r}")

    for name, (dropped, count) in known.CLOSE_CASES.items():
        doc = _load(base[name])
        for label in dropped:
            del doc["extractors"][label]
        src = _write(os.path.join(work, name + ".drop.json"), doc)
        out = os.path.join(work, name + ".closed.json")
        single("close", f"close {name}", ["close", "--with-identity", src, "-o", out],
               expect_file_n(out, count, key="extractors"))

    # Corrupted copies: the seed picks the entry that changes.
    for fam in (known.S33, known.L3C3):
        doc = _load(base[fam.name])
        a, b = rng.sample(range(fam.n), 2)
        old = doc["join"][a][b]
        doc["join"][a][b] = rng.choice([v for v in range(fam.n) if v != old])
        path = _write(os.path.join(work, fam.name + ".badjoin.json"), doc)
        single("verify-corrupt", f"verify {fam.name} join[{a}][{b}]", ["verify", path],
               expect_rc(1, stdout_has="FAIL  " + known.CORRUPT_JOIN_AXIOM))
    for fam in (known.S25, known.M22):
        doc = _load(base[fam.name])
        label = rng.choice(sorted(doc["extractors"]))
        x = rng.choice([v for v in range(fam.n) if v != doc["zero"]])
        doc["extractors"][label][x] = doc["zero"]
        path = _write(os.path.join(work, fam.name + ".badext.json"), doc)
        single("verify-corrupt", f"verify {fam.name} {label}[{x}]", ["verify", path],
               expect_rc(1, stdout_has="FAIL  " + known.CORRUPT_EXTRACTOR_AXIOM))

    small = _load(base[known.M22.name])
    no_zero = dict(small)
    del no_zero["zero"]
    short_row = json.loads(json.dumps(small))
    short_row["join"][3] = short_row["join"][3][:-1]
    malformed = {"not_json": "{\"n\": 4,", "array": "[1, 2, 3]",
                 "missing_key": no_zero, "short_row": short_row}
    for tag, content in malformed.items():
        path = _write(os.path.join(work, f"malformed_{tag}.json"), content)
        single("verify-malformed", f"verify malformed {tag}", ["verify", path], expect_rc(2))
    single("verify-malformed", "verify missing file",
           ["verify", os.path.join(work, "no_such_file.json")], expect_rc(2))

    return Plan(groups, f"verify {known.S26.name}")


# --- duality: round trips and representations --------------------------------

DISTRIBUTIVE_FAMILIES = (known.M22, known.M23, known.L2C4, known.L3C3, known.L22C3)


def setup_duality(program: Program, work: str, rng) -> Plan:
    groups = []
    problems = []
    base = {fam.name: _generate(program, work, fam)
            for fam in DISTRIBUTIVE_FAMILIES + (known.S25, known.S33)}
    files = program.files

    spaces = list(program.generators.enumerate_q_spaces(3))
    if len(spaces) != known.QSPACES_UP_TO_3_POINTS:
        problems.append(f"{len(spaces)} Q-spaces with at most 3 points, "
                        f"expected {known.QSPACES_UP_TO_3_POINTS}")
    q_paths = [_write(os.path.join(work, f"q{i}.json"), files.dumps(files.qspace_doc(s)))
               for i, s in enumerate(spaces)]
    algebras = {}
    for fam in DISTRIBUTIVE_FAMILIES:
        with open(base[fam.name], encoding="utf-8") as fh:
            parsed = files.parse_algebra(fh.read())
        if parsed.algebra is None:
            raise SetupError(f"{fam.name} does not parse:\n{parsed.report.format()}")
        algebras[fam.name] = parsed.algebra

    for fam in DISTRIBUTIVE_FAMILIES:
        path = base[fam.name]
        dual = os.path.join(work, fam.name + ".dual.json")
        rec = os.path.join(work, fam.name + ".rec.json")
        groups.append(lambda p, path=path: p.cli(
            "roundtrip-algebra", f"roundtrip {os.path.basename(path)}", ["roundtrip", path],
            expect_rc(0, stdout_has="ok    isomorphism")))

        def chain(p, fam=fam, path=path, dual=dual, rec=rec):
            p.cli("dualize", f"dualize {fam.name}", ["dualize", path, "-o", dual],
                  expect_file_n(dual, fam.dual_points))
            p.cli("reconstruct", f"reconstruct {fam.name}.dual", ["reconstruct", dual, "-o", rec],
                  expect_file_n(rec, fam.n))
            p.cli("roundtrip-space", f"roundtrip {fam.name}.dual", ["roundtrip", dual],
                  expect_rc(0, stdout_has="ok    q_isomorphism"))
        groups.append(chain)

        a = algebras[fam.name]
        set_algebra, atoms = program.set_algebra, program.atoms
        groups.append(lambda p, a=a, fam=fam: p.call(
            "upset-representation", f"principal_upset_representation {fam.name}",
            lambda: set_algebra.principal_upset_representation(a),
            lambda rep: None if _is_order_isomorphism(rep.morphism.f, a, rep.algebra)
            else "not an order isomorphism"))
        complete = fam.classification == "completely atomistic"
        groups.append(lambda p, a=a, fam=fam, complete=complete: p.call(
            "atom-representation", f"atom_representation {fam.name}",
            lambda: atoms.atom_representation(a),
            lambda rep: None if (len(rep.atoms), rep.is_embedding, rep.is_isomorphism)
            == (fam.atoms, complete, complete)
            else f"atoms={len(rep.atoms)} embedding={rep.is_embedding} "
                 f"iso={rep.is_isomorphism}, expected {fam.atoms}, {complete}, {complete}"))

    for i, path in enumerate(q_paths):
        groups.append(lambda p, i=i, path=path: p.cli(
            "roundtrip-qspace", f"roundtrip q{i}", ["roundtrip", path],
            expect_rc(0, stdout_has="ok    q_isomorphism")))

    for fam in (known.S25, known.S33):
        for cmd in ("roundtrip", "dualize"):
            argv = [cmd, base[fam.name]] + (["-o", os.path.join(work, "never.json")]
                                            if cmd == "dualize" else [])
            groups.append(lambda p, cmd=cmd, fam=fam, argv=argv: p.cli(
                "not-distributive", f"{cmd} {fam.name}", argv,
                expect_rc(1, stderr_has=known.NOT_DISTRIBUTIVE_MESSAGE)))

    return Plan(groups, f"roundtrip {known.L22C3.name}.json", problems)


# --- enumerate: the exhaustive universe --------------------------------------

def _algebra_counts(algebras) -> str | None:
    if len(algebras) != known.ALGEBRAS_UP_TO_5_PIN:
        return f"{len(algebras)} algebras, pinned {known.ALGEBRAS_UP_TO_5_PIN}"
    lattices = Counter(n for n, _ in {(a.n, a.sl.join) for a in algebras})
    if dict(lattices) != known.DISTRIBUTIVE_LATTICES_BY_SIZE:
        return f"distributive lattices by size {dict(lattices)}"
    return None


def _qspace_counts(spaces) -> str | None:
    if len(spaces) != known.QSPACES_UP_TO_4_POINTS:
        return f"{len(spaces)} Q-spaces, expected {known.QSPACES_UP_TO_4_POINTS}"
    small = sum(1 for s in spaces if s.poset.n <= 3)
    if small != known.QSPACES_UP_TO_3_POINTS:
        return f"{small} Q-spaces with at most 3 points"
    posets = Counter(n for n, _ in {(s.poset.n, s.poset.up) for s in spaces})
    want = {n: c for n, c in known.POSETS_BY_SIZE.items() if n <= 4}
    return None if dict(posets) == want else f"posets by size {dict(posets)}"


def setup_enumerate(program: Program, work: str, rng) -> Plan:
    gen, algebra, duality = program.generators, program.algebra, program.duality

    def algebras(p):
        p.stream("stream-algebra", "enumerate_algebras(5)",
                 lambda: gen.enumerate_algebras(5),
                 lambda a: (algebra.verify_axioms(a).ok, algebra.check_kernel_theorem(a)),
                 lambda v: None if v == (True, True) else f"axioms, kernel theorem: {v}",
                 _algebra_counts)

    def spaces(p):
        p.stream("stream-qspace", "enumerate_q_spaces(4)",
                 lambda: gen.enumerate_q_spaces(4),
                 lambda s: duality.make_q_space(s.poset, s.eqs),
                 lambda s: None,
                 _qspace_counts)

    def posets(p):
        p.call("enumerate-posets", "enumerate_posets(5)", lambda: gen.enumerate_posets(5),
               lambda ps: None if dict(Counter(q.n for q in ps)) == known.POSETS_BY_SIZE
               else f"posets by size {dict(Counter(q.n for q in ps))}")

    total = known.ALGEBRAS_UP_TO_5_PIN + known.QSPACES_UP_TO_4_POINTS
    last = (f"total: {known.ALGEBRAS_UP_TO_5_PIN} algebras, "
            f"{known.QSPACES_UP_TO_4_POINTS} q-spaces")

    def cli_enumerate(rc, out, err):
        lines = out.splitlines()
        if rc != 0 or len(lines) != total + 1 or lines[-1] != last:
            return f"exit {rc}, {len(lines)} lines, last {lines[-1:]!r}"
        return None

    def cli(p):
        p.cli("cli-enumerate", "enumerate 5 --posets 4", ["enumerate", "5", "--posets", "4"],
              cli_enumerate)

    return Plan([algebras, spaces, posets, cli], "enumerate 5 --posets 4")


WORKLOADS = {
    "verify": setup_verify,
    "duality": setup_duality,
    "enumerate": setup_enumerate,
}
