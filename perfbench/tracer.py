"""Span tracing of the infalg package, done from outside it.

The tracer wraps the public functions listed in LAYERS. Modules import each
other by name (``from .order import try_lattice``), so a wrapper is bound in
every loaded ``infalg`` module that holds the original, not only in the
module that defines it. Spans are kept in memory as
``[function id, start ns, end ns, parent span, op id, extra]`` and turned
into self times and call counts when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time

# Layers are the package's modules; `report` and `errors` do no measurable
# work. Each entry names the public functions whose spans are recorded: the
# ones the per-layer metrics name, plus the stages they call, so that each
# self time stays within one stage.
LAYERS = {
    "cli": ("main",),
    "files": ("parse_algebra", "parse_qspace", "algebra_doc", "qspace_doc", "dumps"),
    "order": ("verify_poset", "verify_semilattice", "semilattice_from_poset",
              "semilattice_from_join", "try_lattice", "lattice_from_semilattice",
              "is_distributive", "meet_irreducibles", "up_sets", "automorphisms"),
    "equivalence": ("star", "star_family", "star_closure", "all_equivalences"),
    "algebra": ("verify_axioms", "check_kernel_theorem", "is_distributive_cdf",
                "is_homomorphism", "is_isomorphism"),
    "set_algebra": ("build_set_algebra", "SetAlgebra.to_info_algebra",
                    "principal_upset_representation"),
    "atoms": ("classify", "atom_representation"),
    "duality": ("dualize", "reconstruct", "round_trip_algebra", "round_trip_space",
                "check_separating", "q_space_report", "make_q_space", "check_q_morphism"),
    "generators": ("gen_string", "gen_multivariate", "gen_lattice_valued",
                   "enumerate_posets", "enumerate_lattices", "extraction_maps",
                   "extraction_families", "separating_equivalences",
                   "enumerate_algebras", "enumerate_q_spaces"),
}


def _pool_and_found(args, result):
    return (len(args[0]), len(result))


def _pool_size(args, result):
    return len(result)


# Sizes recorded on a span, for the waste ratios of the subset scans.
SIZERS = {
    "generators.extraction_families": _pool_and_found,
    "generators.separating_equivalences": _pool_size,
}


class Tracer:
    """Collects spans while installed; restores the originals on uninstall."""

    def __init__(self):
        self.names: list[str] = []
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = -1
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        modules = {name: mod for name, mod in sys.modules.items()
                   if mod is not None and (name == "infalg" or name.startswith("infalg."))}
        for layer, funcs in LAYERS.items():
            home = modules["infalg." + layer]
            for func in funcs:
                qualname = f"{layer}.{func.split('.')[-1]}"
                if "." in func:
                    cls_name, attr = func.split(".")
                    cls = getattr(home, cls_name)
                    original = cls.__dict__[attr]
                    self._bind(cls, attr, self._wrap(qualname, original))
                    continue
                original = getattr(home, func)
                wrapper = self._wrap(qualname, original)
                for mod in modules.values():
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._bind(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _bind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, qualname: str, fn):
        fid = len(self.names)
        self.names.append(qualname)
        spans, stack = self.spans, self.stack
        clock = time.perf_counter_ns
        sizer = SIZERS.get(qualname)

        if inspect.isgeneratorfunction(fn):
            # One span per resume: the work of a generator happens while
            # the consumer pulls from it, not when it is created.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    rec = [fid, 0, 0, stack[-1] if stack else -1, self.op, None]
                    stack.append(len(spans))
                    spans.append(rec)
                    rec[1] = clock()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        rec[2] = clock()
                        stack.pop()
                    rec[5] = 1
                    yield item
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [fid, 0, 0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if sizer is not None:
                rec[5] = sizer(args, result)
            return result
        return wrapper

    def self_times(self) -> list[int]:
        """Per span: its duration minus the durations of its direct children."""
        self_ns = [rec[2] - rec[1] for rec in self.spans]
        for rec in self.spans:
            if rec[3] >= 0:
                self_ns[rec[3]] -= rec[2] - rec[1]
        return self_ns

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for i, rec in enumerate(self.spans):
                fh.write(json.dumps({"span": i, "name": self.names[rec[0]],
                                     "start_ns": rec[1], "end_ns": rec[2],
                                     "parent": rec[3], "op": rec[4],
                                     "extra": rec[5]}) + "\n")


def layer_summary(tracer: Tracer) -> dict:
    """Self ms and call counts per function and per layer for the spans held.

    Also the waste ratios of the two subset scans in `generators`:
    families found over subsets scanned, and Q-spaces yielded over the
    2^k - 1 subsets of each separating pool of size k.
    """
    self_ns = tracer.self_times()
    ms = {name: 0.0 for name in tracer.names}
    calls = {name: 0 for name in tracer.names}
    found = scanned = qspaces = pool_scans = 0
    for rec, own in zip(tracer.spans, self_ns):
        name = tracer.names[rec[0]]
        ms[name] += own / 1e6
        calls[name] += 1
        extra = rec[5]
        if extra is None:
            continue
        if name == "generators.extraction_families":
            scanned += (1 << extra[0]) - 1
            found += extra[1]
        elif name == "generators.separating_equivalences":
            pool_scans += (1 << extra) - 1
        elif name == "generators.enumerate_q_spaces":
            qspaces += extra
    layers = {layer: sum(v for k, v in ms.items() if k.startswith(layer + "."))
              for layer in LAYERS}
    return {
        "ms": ms,
        "calls": calls,
        "layer_ms": layers,
        "extraction_families.yield": found / scanned if scanned else 0.0,
        "qspace_families.yield": qspaces / pool_scans if pool_scans else 0.0,
        "covered_ms": sum(self_ns) / 1e6,
    }


def calls_by_op(tracer: Tracer, names) -> dict[int, dict[str, int]]:
    """Call counts of the given functions, per op id."""
    wanted = {tracer.names.index(n): n for n in names}
    out: dict[int, dict[str, int]] = {}
    for rec in tracer.spans:
        if rec[0] in wanted:
            per_op = out.setdefault(rec[4], {})
            per_op[wanted[rec[0]]] = per_op.get(wanted[rec[0]], 0) + 1
    return out
