"""Benchmark of the infalg verifier, driven from outside the package.

One workload, one fresh interpreter:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0

prints every end-to-end metric by name with its unit, then one JSON line
with `correct`, `attempted`, `failed` and `metrics`. With `--trace 1` the
metrics are the per-layer ones, from passes with every listed public
function wrapped (see tracer.py), alternating with untraced passes so the
tracing overhead can be reported. The exit code is 1 when a verdict
differs from its known answer and 2 when the package cannot be found or
set up.

Without `--workload` every workload runs, each in its own interpreter, one
after another; `--runs N` repeats each with seeds seed..seed+N-1 and prints
medians and quartile spreads, and `--record LABEL` appends those medians
with the machine description to perfbench/trajectory.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
TRAJECTORY = os.path.join(HERE, "trajectory.json")
WORKLOAD_NAMES = ("verify", "duality", "enumerate")

# Set-up (fresh import plus input generation) is repeated and its median
# reported, so the first import's bytecode compilation does not dominate.
SETUP_REPEATS = 9

# Times are reported at a reference machine speed. On a shared 2-core
# virtual machine, other tenants slowed the same code by up to twofold for
# tens of seconds at a time, which moved whole runs. The probe below is fixed
# benchmark code in the style of the package's hot loops (bitmask order
# tables), timed between op groups; each op's time is scaled by
# REFERENCE_PROBE_MS over the median of the six probe times nearest its group.
REFERENCE_PROBE_MS = 1.5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("op_ms.p50", "ms"),
    ("op_ms.p90", "ms"),
    ("largest_op_ms", "ms"),
    ("peak_rss_mb", "MB"),
)
# Printed with the metrics above, carried in the result line by `correct`,
# `attempted` and `failed`; both are 0 on a healthy workload.
VERDICT_METRICS = (("wrong_verdicts", "count"), ("failed_ops_frac", "ratio"))

PER_LAYER = (
    "cli.self_ms",
    "files.self_ms", "files.parse_algebra.ms", "files.parse_qspace.ms", "files.dumps.ms",
    "order.self_ms", "order.verify_semilattice.ms", "order.semilattice_from_poset.ms",
    "order.try_lattice.ms", "order.try_lattice.calls", "order.is_distributive.ms",
    "order.meet_irreducibles.ms", "order.up_sets.ms", "order.up_sets.calls",
    "order.automorphisms.ms",
    "equivalence.self_ms", "equivalence.star_family.ms", "equivalence.star.calls",
    "algebra.self_ms", "algebra.is_distributive_cdf.ms", "algebra.is_distributive_cdf.calls",
    "algebra.is_homomorphism.ms", "algebra.verify_axioms.ms", "algebra.check_kernel_theorem.ms",
    "set_algebra.self_ms", "set_algebra.build_set_algebra.ms",
    "set_algebra.to_info_algebra.ms", "set_algebra.principal_upset_representation.ms",
    "atoms.self_ms", "atoms.classify.ms", "atoms.atom_representation.ms",
    "duality.self_ms", "duality.dualize.ms", "duality.reconstruct.ms",
    "duality.round_trip_algebra.ms", "duality.round_trip_space.ms",
    "duality.check_separating.calls",
    "generators.self_ms", "generators.gen_string.ms", "generators.gen_multivariate.ms",
    "generators.gen_lattice_valued.ms", "generators.enumerate_posets.ms",
    "generators.enumerate_posets.calls", "generators.extraction_maps.ms",
    "generators.extraction_families.ms", "generators.separating_equivalences.ms",
    "generators.extraction_families.yield", "generators.qspace_families.yield",
    "trace.wall_ms", "trace.uncovered_ms", "trace.overhead_ms",
)

# Derivations counted per op kind in the traced run.
DERIVATIONS = ("order.try_lattice", "algebra.is_distributive_cdf", "order.up_sets")


def per_layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "count"
    if name.endswith(".yield"):
        return "ratio"
    return "ms"


def nearest_rank(sorted_values, q: float) -> float:
    return sorted_values[max(0, math.ceil(len(sorted_values) * q) - 1)]


def fmt(value: float) -> str:
    return f"{value:.6g}"


# --- one workload in this process --------------------------------------------

def probe_ms() -> float:
    """Time of a fixed meet-table computation on a 14-element order, in ms."""
    t0 = time.perf_counter_ns()
    n = 14
    up = [sum(1 << b for b in range(n) if b & a == a) for a in range(n)]

    def down(a):
        return sum(1 << b for b in range(n) if (up[b] >> a) & 1)

    meet = []
    for a in range(n):
        row = []
        for b in range(n):
            lowers = m = down(a) & down(b)
            while m:
                c = (m & -m).bit_length() - 1
                if lowers & ~down(c) == 0:
                    row.append(c)
                    break
                m &= m - 1
        meet.append(tuple(row))
    return (time.perf_counter_ns() - t0) / 1e6


def run_passes(program, order, seconds, tracer_factory):
    """Untraced passes, or alternating untraced and traced ones, for `seconds`."""
    from workloads import Pass

    untraced, traced = [], []
    start = time.perf_counter()
    while not (untraced and (traced or tracer_factory is None)) \
            or time.perf_counter() - start < seconds:
        tracer = None
        if tracer_factory is not None and len(traced) < len(untraced):
            tracer = tracer_factory()
            tracer.install()
        p = Pass(program, tracer)
        probes, bounds = [probe_ms()], [0]
        try:
            for group in order:
                group(p)
                probes.append(probe_ms())
                bounds.append(len(p.samples))
        finally:
            if tracer is not None:
                tracer.uninstall()
        for i in range(1, len(bounds)):
            near = probes[max(0, i - 3):i + 3]
            for smp in p.samples[bounds[i - 1]:bounds[i]]:
                smp.scale = REFERENCE_PROBE_MS / statistics.median(near)
        (traced if tracer is not None else untraced).append(p)
    return untraced, traced


def end_to_end(passes, plan, setup_times) -> dict:
    """Each op's time is the median over the passes of its time at reference
    speed; a failed op counts as slowest. A pass made of these times gives
    the rate."""
    scaled: dict[tuple[str, str], list[float]] = {}
    correct = set()
    for p in passes:
        for s in p.samples:
            key = (s.kind, s.label)
            ms = s.ns * s.scale / 1e6 if s.status != "failed" else math.inf
            scaled.setdefault(key, []).append(ms)
            if s.status == "ok":
                correct.add(key)
    op_ms = {key: statistics.median(times) for key, times in scaled.items()}
    times = sorted(op_ms.values())
    finite = sum(t for t in times if t != math.inf)
    return {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(correct) / (finite / 1e3),
        "op_ms.p50": nearest_rank(times, 0.50),
        "op_ms.p90": nearest_rank(times, 0.90),
        "largest_op_ms": next(t for (_, label), t in op_ms.items() if label == plan.largest),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(untraced, traced):
    from tracer import calls_by_op, layer_summary

    rows = []
    for p in traced:
        summary = layer_summary(p.tracer)
        wall = sum(s.ns for s in p.samples) / 1e6
        root = {}
        for rec in p.tracer.spans:
            if rec[3] < 0:
                root[rec[4]] = root.get(rec[4], 0) + rec[2] - rec[1]
        uncovered = sum(s.ns - root.get(i, 0) for i, s in enumerate(p.samples)) / 1e6
        row = {"trace.wall_ms": wall, "trace.uncovered_ms": uncovered,
               "covered_ms": summary["covered_ms"]}
        for name in PER_LAYER:
            if name.endswith(".self_ms"):
                row[name] = summary["layer_ms"][name[:-len(".self_ms")]]
            elif name.endswith(".ms") and not name.startswith("trace."):
                row[name] = summary["ms"][name[:-len(".ms")]]
            elif name.endswith(".calls"):
                row[name] = summary["calls"][name[:-len(".calls")]]
            elif name.endswith(".yield"):
                row[name] = summary[name[len("generators."):]]
        rows.append(row)
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    # Both walls at reference speed, so that machine noise does not swamp it.
    metrics["trace.overhead_ms"] = (
        statistics.median(sum(s.ns * s.scale for s in p.samples) / 1e6 for p in traced)
        - statistics.median(sum(s.ns * s.scale for s in p.samples) / 1e6 for p in untraced))

    last = traced[-1]
    lines = [f"traced passes {len(traced)}, untraced passes {len(untraced)}",
             f"check: layer self times {fmt(metrics['covered_ms'])} ms + untraced remainder "
             f"{fmt(metrics['trace.uncovered_ms'])} ms = "
             f"{(metrics['covered_ms'] + metrics['trace.uncovered_ms']) / metrics['trace.wall_ms']:.4f}"
             f" of traced wall {fmt(metrics['trace.wall_ms'])} ms"]
    by_op = calls_by_op(last.tracer, DERIVATIONS)
    kinds: dict[str, list[int]] = {}
    for i, s in enumerate(last.samples):
        kinds.setdefault(s.kind, []).append(i)
    lines.append("derivations per op: " + ", ".join(d.split(".")[1] for d in DERIVATIONS))
    for kind, ops in sorted(kinds.items()):
        counts = [sum(by_op.get(i, {}).get(d, 0) for i in ops) / len(ops) for d in DERIVATIONS]
        lines.append(f"  {kind:22s} ops={len(ops):4d} " + " ".join(f"{c:8.3g}" for c in counts))
    summary = layer_summary(last.tracer)
    lines.append("all wrapped functions, last traced pass (self ms, calls):")
    for name in sorted(summary["ms"]):
        if summary["calls"][name]:
            lines.append(f"  {name:45s} {summary['ms'][name]:12.3f} {summary['calls'][name]:8d}")
    return metrics, lines, last.tracer


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "infalg", "__init__.py")):
        print(f"error: no infalg package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from tracer import Tracer
    from workloads import WORKLOADS, Program, SetupError

    work = os.path.join(OUT, f"work-{name}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        setup_times = []
        for _ in range(1 if trace else SETUP_REPEATS):
            before = probe_ms()
            t0 = time.perf_counter()
            program = Program()
            rng = random.Random(seed)
            try:
                plan = WORKLOADS[name](program, work, rng)
            except SetupError as exc:
                print(f"error: set-up of {name} failed: {exc}", file=sys.stderr)
                return 2
            order = list(plan.groups)
            rng.shuffle(order)
            elapsed = time.perf_counter() - t0
            setup_times.append(elapsed * 2 * REFERENCE_PROBE_MS / (before + probe_ms()))
        untraced, traced = run_passes(program, order, seconds,
                                      Tracer if trace else None)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    passes = untraced + traced
    samples = [s for p in passes for s in p.samples]
    problems = list(plan.setup_problems) + [c for p in passes for c in p.count_problems]
    wrong = sum(s.status == "wrong" for s in samples) + len(problems)
    failed = sum(s.status == "failed" for s in samples)
    for s in samples:
        if s.status != "ok":
            problems.append(f"{s.status}: {s.label}: {s.note}")
    for line in sorted(set(problems)):
        print(line)

    speed = [REFERENCE_PROBE_MS / s.scale for s in samples]
    print(f"probe ms: median {fmt(statistics.median(speed))}, "
          f"min {fmt(min(speed))}, max {fmt(max(speed))}, reference {REFERENCE_PROBE_MS}")
    print("setup s at reference speed: " + " ".join(fmt(t) for t in setup_times))
    for label, group in (("untraced", untraced), ("traced", traced)):
        if group:
            print(f"{label} pass ms: "
                  + " ".join(fmt(sum(s.ns for s in p.samples) / 1e6) for p in group))
    print(f"workload {name}, seed {seed}, {len(untraced)} untraced passes of "
          f"{len(untraced[0].samples)} ops, {len(samples)} op samples in all")
    if trace:
        metrics, lines, tracer = per_layer(untraced, traced)
        print("\n".join(lines))
        tracer.write(os.path.join(OUT, f"spans-{name}.jsonl"))
        shown = [(m, metrics[m], per_layer_unit(m)) for m in PER_LAYER]
    else:
        e2e = end_to_end(untraced, plan, setup_times)
        shown = [(m, e2e[m], unit) for m, unit in END_TO_END]
    verdicts = [("wrong_verdicts", wrong, "count"),
                ("failed_ops_frac", failed / len(samples), "ratio")]
    for metric, value, unit in shown + verdicts:
        print(f"{metric:45s} {fmt(value):>12s} {unit}")
    if not trace:
        print(f"(op_ms percentiles over {len(untraced[0].samples)} ops, each the median of "
              f"{len(untraced)} passes; failed ops count as slowest)")
    print(json.dumps({"correct": wrong == 0, "attempted": len(samples), "failed": failed,
                      "metrics": {m: {"value": v, "unit": u} for m, v, u in shown}}))
    return 0 if wrong == 0 else 1


# --- every workload, each in its own interpreter -----------------------------

def run_suite(seed: int, seconds: float, trace: int, runs: int, record: str | None) -> int:
    results: dict[str, dict[str, list[float]]] = {}
    status = 0
    for name in WORKLOAD_NAMES:
        for k in range(runs):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(seed + k), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            if runs == 1:
                sys.stdout.write(proc.stdout)
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed + k}: exit {proc.returncode}")
                status = 1
                continue
            result = json.loads(lines[-1])
            for metric, entry in result["metrics"].items():
                results.setdefault(name, {}).setdefault(metric, []).append(entry["value"])
            for line in lines:
                words = line.split()
                if words and words[0] in dict(VERDICT_METRICS):
                    results[name].setdefault(words[0], []).append(float(words[1]))
    units = dict(END_TO_END + VERDICT_METRICS)
    print(f"\n{'metric':45s} {'workload':10s} {'median':>12s} {'iqr/median':>10s} runs")
    medians = {}
    for name, metrics in results.items():
        for metric, values in metrics.items():
            med = statistics.median(values)
            spread = ""
            if len(values) >= 2 and med:
                q1, _, q3 = statistics.quantiles(values, n=4)
                spread = f"{(q3 - q1) / med:.4f}"
            medians.setdefault(name, {})[metric] = {"value": med,
                                                    "unit": units.get(metric, per_layer_unit(metric))}
            print(f"{metric:45s} {name:10s} {fmt(med):>12s} {spread:>10s} {len(values)}")
    if record:
        point = {"label": record, "seed": seed, "runs": runs, "seconds": seconds,
                 "trace": trace, "python": platform.python_version(),
                 "nproc": os.cpu_count(), "cpu": cpu_model(), "workloads": medians}
        history = []
        if os.path.exists(TRAJECTORY):
            with open(TRAJECTORY, encoding="utf-8") as fh:
                history = json.load(fh)
        history.append(point)
        with open(TRAJECTORY, "w", encoding="utf-8") as fh:
            json.dump(history, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return status


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1)
    parser.add_argument("--record", metavar="LABEL")
    args = parser.parse_args(argv)
    if args.workload:
        return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    return run_suite(args.seed, args.seconds, args.trace, args.runs, args.record)


if __name__ == "__main__":
    sys.exit(main())
