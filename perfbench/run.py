#!/usr/bin/env python3
"""Benchmark of the parametric interdiction solvers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --anchor

Run from the repository root.  One run generates the workload's seeded
instance set (see workloads.py), turns it into instances through
`cli.instance_from_dict`, and then repeats passes until --seconds are
used up.  A pass solves every instance with `brute`, `uset` and `tree`
and verifies every `verify_every`-th `uset` solution against the
enumeration oracle.  Every solution is checked: the solvers must agree segment for
segment, respect `changepoint_bound`, pass verification, repeat their
oracle-call counts exactly, and, for seeds with a committed digest,
reproduce the committed segments.

--trace 0 prints the end-to-end metrics: solve and verify times as
medians over passes, oracle calls, set-up time and peak memory.  Times
are scaled to a reference host speed (see `calibration`).
--trace 1 runs one untraced and one traced pass instead, prints the
per-layer metrics, and writes the spans to .perfbench_out/.
--anchor solves the ROADMAP's profiled instance and checks its oracle
calls against the recorded ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 only when
every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from fractions import Fraction
from math import comb
from pathlib import Path
from time import perf_counter

from spans import Tracer
from workloads import ANCHOR, ANCHOR_CALLS, ANCHOR_ROADMAP_S, SOLVERS, WORKLOADS, padded_graphic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PROGRAM = "matroid_interdiction"
DIGESTS = HERE / "digests.json"
SPAN_DIR = ROOT / ".perfbench_out"

SETUP_REPEATS = 5
VERIFY_EXTRA_SAMPLES = 2
VERIFY_SEED = 0

# The shared host's speed drifts by up to a quarter between runs minutes
# apart, which more work in one run cannot average out.  Every reported
# time is therefore scaled to a reference host speed: it is multiplied by
# CAL_REF_S over the time a fixed calibration loop, which shares no code
# with the program, took in the same pass.  Raw wall times are printed on
# the `# wall` line.
CAL_REF_S = 0.008  # about the loop's time on the shared 2-core VM of the baselines
_CAL_VALUES = [Fraction(i % 17 - 8, i % 7 + 1) for i in range(64)]


def calibration() -> float:
    """Seconds for a fixed greedy-style loop over Fractions, sorts and sets."""
    start = perf_counter()
    total = Fraction(0)
    for r in range(12):
        lam = Fraction(r, 3)
        order = sorted(range(64), key=lambda i: (_CAL_VALUES[i] * lam + _CAL_VALUES[(i * 7) % 64], i))
        chosen: set[int] = set()
        for i in order:
            chosen.add(i)
            if len(frozenset(chosen)) > 20:
                chosen.discard(i)
        total += sum((_CAL_VALUES[i] for i in chosen), Fraction(0))
    return perf_counter() - start

# Per-layer metrics of the traced run, per root span label:
# layer function -> the statistics reported for it.
LAYER_STATS = {
    "setup": {
        "cli.instance_from_dict": ("self_s",),
        "matroid.is_independent": ("calls", "self_s"),
    },
    "brute": {
        "interdiction.solve": ("self_s",),
        "parametric.all_equality_points": ("self_s",),
        "parametric.parametric_sweep": ("calls", "self_s"),
        "parametric.greedy_min_basis": ("calls", "self_s"),
        "matroid.is_independent": ("calls", "self_s"),
        "envelope.upper_envelope": ("self_s",),
        "envelope.classify_changepoints": ("self_s",),
    },
    "uset": {
        "interdiction.solve": ("self_s",),
        "parametric.all_equality_points": ("self_s",),
        "interdiction.layered_bases": ("calls", "self_s"),
        "parametric.greedy_min_basis": ("calls", "self_s"),
        "matroid.is_independent": ("calls", "self_s"),
        "interdiction.update_u": ("calls", "self_s"),
        "interdiction.update_interdicted_set": ("calls", "self_s"),
        "envelope.envelope_of_lines": ("calls", "self_s"),
        "envelope.concatenate": ("self_s",),
        "envelope.classify_changepoints": ("self_s",),
    },
    "tree": {
        "interdiction.solve": ("self_s",),
        "parametric.all_equality_points": ("self_s",),
        "interdiction.candidate_tree": ("calls", "self_s"),
        "interdiction.layered_bases": ("calls", "self_s"),
        "parametric.greedy_min_basis": ("calls", "self_s"),
        "parametric.replacement_element": ("calls", "self_s"),
        "matroid.is_independent": ("calls", "self_s"),
        "envelope.envelope_of_lines": ("calls", "self_s"),
        "envelope.concatenate": ("self_s",),
        "envelope.classify_changepoints": ("self_s",),
    },
    "verify": {
        "oracle.verify_solution": ("self_s",),
        "oracle.oracle_value": ("calls", "self_s"),
        "matroid.is_independent": ("calls", "self_s"),
    },
    "check": {
        "cli.solution_to_dict": ("self_s",),
    },
}

# Functions wrapped in the traced run: (module, attribute, layer name).
# Each is wrapped under the name its callers look up.
TRACED = [
    ("interdiction", "layered_bases", "interdiction.layered_bases"),
    ("interdiction", "update_u", "interdiction.update_u"),
    ("interdiction", "update_interdicted_set", "interdiction.update_interdicted_set"),
    ("interdiction", "candidate_tree", "interdiction.candidate_tree"),
    ("interdiction", "greedy_min_basis", "parametric.greedy_min_basis"),
    ("interdiction", "replacement_element", "parametric.replacement_element"),
    ("interdiction", "parametric_sweep", "parametric.parametric_sweep"),
    ("interdiction", "all_equality_points", "parametric.all_equality_points"),
    ("interdiction", "envelope_of_lines", "envelope.envelope_of_lines"),
    ("interdiction", "upper_envelope", "envelope.upper_envelope"),
    ("interdiction", "concatenate", "envelope.concatenate"),
    ("interdiction", "classify_changepoints", "envelope.classify_changepoints"),
    ("parametric", "greedy_min_basis", "parametric.greedy_min_basis"),
    ("parametric", "replacement_element", "parametric.replacement_element"),
    ("oracle", "oracle_value", "oracle.oracle_value"),
]


class Program:
    """The program's modules, imported afresh from the checkout's src/."""

    MODULES = ("cli", "interdiction", "matroid", "oracle", "parametric")

    def __init__(self):
        for name in [n for n in sys.modules if n == PROGRAM or n.startswith(PROGRAM + ".")]:
            del sys.modules[name]
        for name in self.MODULES:
            setattr(self, name, importlib.import_module(f"{PROGRAM}.{name}"))


def load_program_path() -> None:
    if not (SRC / PROGRAM / "__init__.py").is_file():
        sys.exit(f"error: {SRC / PROGRAM} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))


def parse(program: Program, workload, seed: int, tracer: Tracer | None = None) -> list:
    """Generate the workload's instance dicts and parse them."""
    instances = []
    for j, data in enumerate(workload.instance_dicts(seed)):
        with root(tracer, "setup", "cli.instance_from_dict", j):
            instances.append(program.cli.instance_from_dict(data, f"instance {j}"))
    return instances


def setup(workload, seed: int):
    """Import the program, generate the instance set and parse it."""
    start = perf_counter()
    program = Program()
    instances = parse(program, workload, seed)
    return perf_counter() - start, program, instances


def root(tracer: Tracer | None, label: str, name: str, instance: int):
    return tracer.root(label, name, instance) if tracer else nullcontext()


class Pass:
    """One solve of the instance set by every solver, plus verification.

    The solvers take turns instance by instance, so each solver's total
    samples the machine's speed over the whole pass, not one stretch of it.
    """

    def __init__(self, program: Program, instances, verify_every: int, tracer: Tracer | None = None):
        self.times = dict.fromkeys((*SOLVERS, "verify"), 0.0)
        calibrated = 0.0
        self.solutions: dict[str, list] = {solver: [] for solver in SOLVERS}
        self.reports: dict[int, object] = {}
        self.errors: dict[tuple, str] = {}
        interdiction, oracle = program.interdiction, program.oracle
        gc.collect()
        for j, instance in enumerate(instances):
            for solver in SOLVERS:
                sol = None
                start = perf_counter()
                try:
                    with root(tracer, solver, "interdiction.solve", j):
                        sol = interdiction.solve(instance, solver)
                except Exception:  # a failed operation is counted, not fatal
                    self.errors[(solver, j)] = traceback.format_exc()
                self.times[solver] += perf_counter() - start
                self.solutions[solver].append(sol)
            calibrated += calibration()
            sol = self.solutions["uset"][j]
            if j % verify_every or sol is None:
                continue
            start = perf_counter()
            try:
                with root(tracer, "verify", "oracle.verify_solution", j):
                    self.reports[j] = oracle.verify_solution(
                        instance, sol, extra_samples=VERIFY_EXTRA_SAMPLES, seed=VERIFY_SEED
                    )
            except Exception:
                self.errors[("verify", j)] = traceback.format_exc()
            self.times["verify"] += perf_counter() - start
        self.attempted = len(SOLVERS) * len(instances) + len(range(0, len(instances), verify_every))
        self.scale = CAL_REF_S * len(instances) / calibrated

    def oracle_calls(self, solver: str) -> int:
        return sum(s.oracle_calls for s in self.solutions[solver] if s is not None)


def check(program: Program, instances, p: Pass, tracer: Tracer | None = None) -> list[list]:
    """Correctness gate on one pass; records failures in p.errors.

    Returns each instance's segments (from the brute reference).
    """
    cli, interdiction = program.cli, program.interdiction
    segments = []
    for j, instance in enumerate(instances):
        bound = interdiction.changepoint_bound(instance.ground_size, instance.rank, instance.ell)
        ref = None
        for solver in SOLVERS:
            sol = p.solutions[solver][j]
            if sol is None:
                continue
            with root(tracer, "check", "cli.solution_to_dict", j):
                segs = cli.solution_to_dict(sol, 0.0)["segments"]
            if len(sol.changepoints) > bound:
                p.errors[(solver, j)] = f"{len(sol.changepoints)} changepoints exceed the bound {bound}"
            if ref is None:
                ref = segs
            elif segs != ref:
                p.errors[(solver, j)] = f"segments differ from {SOLVERS[0]}"
        segments.append(ref)
    for j, report in p.reports.items():
        if not report.ok:
            p.errors[("verify", j)] = "verification failed: " + "; ".join(report.failures[:3])
    return segments


def instance_digests(segments: list[list]) -> list[str]:
    return [
        hashlib.sha256(json.dumps(s, sort_keys=True).encode()).hexdigest()[:16] for s in segments
    ]


def check_digests(name: str, seed: int, segments: list[list], p: Pass) -> bool:
    """Compare with the committed digests; False when the seed has none."""
    committed = json.loads(DIGESTS.read_text()).get(name, {}).get(str(seed)) if DIGESTS.exists() else None
    if committed is None:
        return False
    for j, (want, got) in enumerate(zip(committed, instance_digests(segments))):
        if want != got:
            p.errors[(SOLVERS[0], j)] = "segments differ from the committed digest"
    return True


def record_digests(name: str, seed: int, segments: list[list]) -> None:
    table = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    table.setdefault(name, {})[str(seed)] = instance_digests(segments)
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# end-to-end run


def end_to_end(name: str, workload, seed: int, seconds: float):
    setups, scaled_setups = [], []
    for _ in range(SETUP_REPEATS):
        before = calibration()
        elapsed, program, instances = setup(workload, seed)
        setups.append(elapsed)
        scaled_setups.append(elapsed * 2 * CAL_REF_S / (before + calibration()))
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        p = Pass(program, instances, workload.verify_every)
        passes.append(p)
        wall = " ".join(f"{k}={v:.3f}s" for k, v in p.times.items())
        print(f"pass {len(passes)}: wall {wall} scale={p.scale:.3f}", file=sys.stderr)
        used = perf_counter() - start
        if used + used / len(passes) > seconds:
            break
    segments = check(program, instances, passes[0])
    first = passes[0]
    for p in passes[1:]:
        for solver in SOLVERS:
            if p.oracle_calls(solver) != first.oracle_calls(solver):
                p.errors[(solver, -1)] = "oracle calls differ from the first pass"
    metrics = {"setup_s": (statistics.median(scaled_setups), "s")}
    for solver in SOLVERS:
        metrics[f"{solver}_solve_s"] = (statistics.median(p.times[solver] * p.scale for p in passes), "s")
    for solver in SOLVERS:
        metrics[f"{solver}_oracle_calls"] = (first.oracle_calls(solver), "count")
    metrics["verify_s"] = (statistics.median(p.times["verify"] * p.scale for p in passes), "s")
    wall = {"setup_s": statistics.median(setups)}
    for key in (*SOLVERS, "verify"):
        wall["verify_s" if key == "verify" else f"{key}_solve_s"] = statistics.median(p.times[key] for p in passes)
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    info = f"passes={len(passes)} instances={len(instances)} verify_every={workload.verify_every}\n# wall " + " ".join(
        f"{k}={v}" for k, v in wall.items()
    )
    return metrics, passes, segments, info


# ---------------------------------------------------------------------------
# traced run


class LayerCounts:
    """Counts derived from the arguments and results of traced calls."""

    def __init__(self, tracer: Tracer, instances):
        self.tracer = tracer
        self.ell = [inst.ell for inst in instances]
        self.family_builds: dict[int, int] = {}
        self.family_total = 0
        self.lines_in: dict[str, int] = {}
        self.pieces_out: dict[str, int] = {}
        self.candidates = 0
        self.events = 0
        self.distinct_events = 0

    def layered_bases(self, args, kwargs, result, parent):
        t = self.tracer
        depth = args[3] if len(args) > 3 else kwargs["depth"]
        # uset's own depth-ell calls build the tracked family; the ones
        # inside update_u only repair layers below a swap
        if t.label == "uset" and parent == t.root_index() and depth == self.ell[t.instance]:
            self.family_builds[t.instance] = self.family_builds.get(t.instance, 0) + 1
            self.family_total += comb(len(result.union), depth)

    def envelope_of_lines(self, args, kwargs, result, parent):
        label = self.tracer.label
        self.lines_in[label] = self.lines_in.get(label, 0) + len(args[0])
        self.pieces_out[label] = self.pieces_out.get(label, 0) + len(result.pieces)

    def candidate_tree(self, args, kwargs, result, parent):
        if self.tracer.label == "tree":
            self.candidates += len(result)

    def all_equality_points(self, args, kwargs, result, parent):
        if self.tracer.label == "uset":
            self.events += len(result)
            self.distinct_events += len({ev.lam for ev in result})


def install(tracer: Tracer, program: Program, counts: LayerCounts) -> None:
    for module, attr, layer in TRACED:
        tracer.wrap(getattr(program, module), attr, layer, getattr(counts, attr, None))
    tracer.wrap(program.matroid.Matroid, "is_independent", "matroid.is_independent")


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(name: str, workload, seed: int):
    _elapsed, program, instances = setup(workload, seed)
    plain = Pass(program, instances, workload.verify_every)
    plain_segments = check(program, instances, plain)

    tracer = Tracer()
    counts = LayerCounts(tracer, instances)
    install(tracer, program, counts)
    try:
        # the traced set-up parses the instances again under the wrappers
        instances = parse(program, workload, seed, tracer)
        p = Pass(program, instances, workload.verify_every, tracer)
        segments = check(program, instances, p, tracer)
    finally:
        tracer.uninstall()

    for solver in SOLVERS:
        if p.oracle_calls(solver) != plain.oracle_calls(solver):
            p.errors[(solver, -1)] = "traced oracle calls differ from the untraced pass"
    if segments != plain_segments:
        p.errors[("trace", -1)] = "traced segments differ from the untraced pass"
    for label in LAYER_STATS:
        covered = sum(v for (lab, _), v in tracer.self_s.items() if lab == label)
        if abs(covered - tracer.root_s[label]) > 1e-6 * max(1.0, tracer.root_s[label]):
            p.errors[("trace", -1)] = f"{label}: self times do not sum to the root spans"

    metrics = {}
    for label, layers in LAYER_STATS.items():
        for layer, stats in layers.items():
            for stat in stats:
                table = tracer.calls if stat == "calls" else tracer.self_s
                unit = "count" if stat == "calls" else "s"
                metrics[f"{label}.{layer}.{stat}"] = (table.get((label, layer), 0), unit)
    for label in (*SOLVERS, "verify"):
        metrics[f"{label}.trace_overhead_s"] = (tracer.root_s[label] - plain.times[label], "s")
    rebuilds = sum(n - 1 for n in counts.family_builds.values())
    builds = sum(counts.family_builds.values())
    metrics["uset.interdiction.uset_rebuilds"] = (rebuilds, "count")
    metrics["uset.interdiction.rebuild_share"] = (ratio(rebuilds, counts.distinct_events), "ratio")
    metrics["uset.interdiction.tracked_family_size"] = (ratio(counts.family_total, builds), "count")
    metrics["uset.parametric.events"] = (counts.events, "count")
    metrics["uset.parametric.coincident_share"] = (1 - ratio(counts.distinct_events, counts.events), "ratio")
    cells = tracer.calls.get(("tree", "interdiction.candidate_tree"), 0)
    metrics["tree.interdiction.candidates_per_cell"] = (ratio(counts.candidates, cells), "count")
    for label in ("uset", "tree"):
        lines = counts.lines_in.get(label, 0)
        metrics[f"{label}.envelope.lines_in"] = (lines, "count")
        metrics[f"{label}.envelope.hull_share"] = (ratio(counts.pieces_out.get(label, 0), lines), "ratio")
    metrics["verify.oracle.samples"] = (sum(r.samples_checked for r in p.reports.values()), "count")

    span_file = SPAN_DIR / f"spans-{name}-{seed}.tsv.gz"
    tracer.write(span_file)
    info = f"spans={len(tracer.span_name)} written to {span_file.relative_to(ROOT)}"
    return metrics, [plain, p], segments, info


# ---------------------------------------------------------------------------
# anchor


def anchor() -> int:
    """Solve the ROADMAP's profiled instance; exit 1 on an oracle-call mismatch."""
    program = Program()
    data = padded_graphic(ANCHOR["seed"], ANCHOR["m"], ANCHOR["vertices"], ANCHOR["ell"])
    instance = program.cli.instance_from_dict(data, "anchor")
    ok = True
    for solver, want in ANCHOR_CALLS.items():
        start = perf_counter()
        sol = program.interdiction.solve(instance, solver)
        elapsed = perf_counter() - start
        ok &= sol.oracle_calls == want
        print(
            f"anchor {solver}: {sol.oracle_calls} oracle calls (ROADMAP {want}), "
            f"{elapsed:.3f} s (ROADMAP {ANCHOR_ROADMAP_S[solver]} s)"
        )
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# entry point


def expected_metrics(trace: bool) -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--anchor", action="store_true", help="check the ROADMAP's profiled instance")
    parser.add_argument("--record-digest", action="store_true", help="store this seed's segment digests")
    args = parser.parse_args(argv)
    if not args.anchor and args.workload is None:
        parser.error("--workload is required")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    load_program_path()
    if args.anchor:
        return anchor()

    workload = WORKLOADS[args.workload]
    if args.trace:
        metrics, passes, segments, info = traced(args.workload, workload, args.seed)
    else:
        metrics, passes, segments, info = end_to_end(args.workload, workload, args.seed, args.seconds)
    digested = check_digests(args.workload, args.seed, segments, passes[-1])

    failed = 0
    for i, p in enumerate(passes, 1):
        for (op, j), message in p.errors.items():
            print(f"FAILED pass {i}: {op} on instance {j}: {message}", file=sys.stderr)
        failed += len(p.errors)
    if args.record_digest and not failed:
        record_digests(args.workload, args.seed, segments)

    missing = set(expected_metrics(bool(args.trace))) ^ set(metrics)
    if missing:
        print(f"error: metrics differ from BENCHMARK.json: {sorted(missing)}", file=sys.stderr)
        return 2
    print(f"# workload={args.workload} seed={args.seed} digest={'checked' if digested else 'none'} {info}")
    for metric, (value, unit) in metrics.items():
        print(f"{metric} {value} {unit}")
    result = {
        "correct": not failed,
        "attempted": sum(p.attempted for p in passes),
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not failed else 1


if __name__ == "__main__":
    sys.exit(main())
