"""Command-line front end: solve, generate, bench.

Instances and solutions are JSON files; every rational is serialized as
a "p/q" (or plain integer) string so exactness survives the file
boundary, and interval endpoints accept "-inf"/"inf".

Exit codes: 0 success, 2 malformed input, infeasible parameters or an
unwritable output path, 3 verification failure, 4 enumeration cap, plot
row cap or generate size cap exceeded.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from decimal import Decimal
from fractions import Fraction

from .envelope import NEG_INF, POS_INF, PiecewiseLinearFunction, aligned_pieces
from .interdiction import (
    ALGORITHMS,
    EnumerationCapExceeded,
    InterdictionSolution,
    changepoint_bound,
    enumeration_cap,
    solve,
)
from .matroid import Matroid, explicit, graphic, partition, uniform
from .oracle import check_verification_cap, verify_solution
from .parametric import Interval, MatroidInstance, pw, rat

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_VERIFY = 3
EXIT_CAP = 4

HEAVY_A = 10_000  # constant weight of connectivity-padding parallel edges
PLOT_MAX_ROWS = 1_000_000  # step samples one --emit-plot file may hold
GENERATE_MAX_ELEMENTS = 1_000_000  # elements one generated instance may hold


class CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


# ---------------------------------------------------------------------------
# rational and file plumbing


def format_rational(x) -> str:
    """The exact "p/q" (or integer) string of x, at any length."""
    if x == NEG_INF:
        return "-inf"
    if x == POS_INF:
        return "inf"
    x = Fraction(x)
    try:
        return str(x)
    except ValueError:  # past the digit limit on integer strings, which Decimal does not apply
        p, q = Decimal(x.numerator), Decimal(x.denominator)
        return str(p) if q == 1 else f"{p}/{q}"


def parse_rational(raw, where: str, allow_infinite: bool = False):
    if isinstance(raw, str):
        text = raw.strip()
        if text in ("inf", "+inf"):
            value = POS_INF
        elif text == "-inf":
            value = NEG_INF
        else:
            try:
                value = rat(text)
            except (ValueError, ZeroDivisionError) as exc:
                raise CliError(EXIT_PARSE, f"{where}: not a rational: {raw!r} ({exc})")
    elif isinstance(raw, bool) or not isinstance(raw, int):
        raise CliError(EXIT_PARSE, f"{where}: expected an integer or a rational string, got {raw!r}")
    else:
        value = Fraction(raw)
    if not allow_infinite and (value == NEG_INF or value == POS_INF):
        raise CliError(EXIT_PARSE, f"{where}: must be finite")
    return value


def _expect(mapping, key, where: str):
    if not isinstance(mapping, dict) or key not in mapping:
        raise CliError(EXIT_PARSE, f"{where}: missing field {key!r}")
    return mapping[key]


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, an int past the digit limit, deep nesting
        raise CliError(EXIT_PARSE, f"{path}: malformed JSON: {exc}")


def _integer(raw, where: str) -> int:
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise CliError(EXIT_PARSE, f"{where} must be an integer, got {raw!r}")
    return raw


def _integers(raw, where: str, item=_integer) -> list:
    """A JSON list whose entries pass `item`, integers by default."""
    if not isinstance(raw, list):
        raise CliError(EXIT_PARSE, f"{where} must be a list, got {raw!r}")
    return [item(x, f"{where}[{i}]") for i, x in enumerate(raw)]


def _edge(raw, where: str) -> list:
    ends = _integers(raw, where)
    if len(ends) != 2:
        raise CliError(EXIT_PARSE, f"{where} must hold 2 endpoints, got {raw!r}")
    return ends


def _build_matroid(spec, where: str) -> Matroid:
    kind = _expect(spec, "type", where)

    def field(key, parse=_integer):
        return parse(_expect(spec, key, where), f"{where}: {key}")

    def rows(raw, at):
        return _integers(raw, at, _integers)

    def edges(raw, at):
        return _integers(raw, at, _edge)

    try:
        if kind == "graphic":
            return graphic(field("num_vertices"), field("edges", edges))
        if kind == "uniform":
            return uniform(field("m"), field("k"))
        if kind == "partition":
            return partition(field("blocks", _integers), field("capacities", _integers))
        if kind == "explicit":
            return explicit(field("m"), field("bases", rows))
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_PARSE, f"{where}: {exc}")
    raise CliError(EXIT_PARSE, f"{where}: unknown matroid family {kind!r}")


def instance_from_dict(data, where: str = "<instance>") -> MatroidInstance:
    """Validate instance file content, or raise a diagnostic."""
    spec = _expect(data, "matroid", where)
    raw_weights = _expect(data, "weights", where)
    if not isinstance(raw_weights, list):
        raise CliError(EXIT_PARSE, f"{where}: weights must be a list")
    matroid = _build_matroid(spec, f"{where}: matroid")
    weights = []
    for i, entry in enumerate(raw_weights):
        a = parse_rational(_expect(entry, "a", f"{where}: weights[{i}]"), f"{where}: weights[{i}].a")
        b = parse_rational(_expect(entry, "b", f"{where}: weights[{i}]"), f"{where}: weights[{i}].b")
        weights.append(pw(a, b))
    ell = _integer(_expect(data, "ell", where), f"{where}: ell")
    raw_interval = _expect(data, "interval", where)
    lo = parse_rational(_expect(raw_interval, "lo", f"{where}: interval"), f"{where}: interval.lo", allow_infinite=True)
    hi = parse_rational(_expect(raw_interval, "hi", f"{where}: interval"), f"{where}: interval.hi", allow_infinite=True)
    try:
        return MatroidInstance(matroid, tuple(weights), ell, Interval(lo, hi))
    except (ValueError, TypeError) as exc:
        raise CliError(EXIT_PARSE, f"{where}: {exc}")


def parse_instance(path: str) -> MatroidInstance:
    """Load and validate an instance file, or raise a diagnostic."""
    return instance_from_dict(_load_json(path), path)


def segment_to_dict(piece) -> dict:
    """One envelope piece as a segment of the solution file."""
    return {
        "lo": format_rational(piece.lo),
        "hi": format_rational(piece.hi),
        "slope": "inf" if piece.line is None else format_rational(piece.line.slope),
        "intercept": "inf" if piece.line is None else format_rational(piece.line.intercept),
        "f_star": list(piece.label.f_star),
        "basis": list(piece.label.basis),
    }


def solution_to_dict(solution: InterdictionSolution, wall_time: float, verification=None) -> dict:
    data = {
        "segments": [segment_to_dict(piece) for piece in solution.envelope.pieces],
        "changepoints": [{"lambda": format_rational(cp.lam), "kind": cp.kind} for cp in solution.changepoints],
        "meta": {
            "algorithm": solution.algorithm,
            "oracle_calls": solution.oracle_calls,
            "wall_time_s": round(wall_time, 6),
        },
    }
    if verification is not None:
        data["meta"]["verification"] = {
            "ok": verification.ok,
            "samples_checked": verification.samples_checked,
            "failures": list(verification.failures),
        }
    return data


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        raise CliError(EXIT_PARSE, f"cannot write {path}: {exc}")


def _dump_json(data, path: str | None):
    text = json.dumps(data, indent=2, sort_keys=True) + "\n"
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        _write(path, text)


# ---------------------------------------------------------------------------
# solve


def _check_plot_step(step: Fraction, lo, hi) -> None:
    """Refuse a step that is not positive, an unbounded [lo, hi], or too many rows."""
    if step <= 0:
        raise CliError(EXIT_PARSE, f"plot step must be positive, got {step}")
    if lo == NEG_INF or hi == POS_INF:
        raise CliError(EXIT_PARSE, "plot emission needs a finite interval")
    samples = (hi - lo) // step + 1
    if samples > PLOT_MAX_ROWS:
        raise CliError(EXIT_CAP, f"plot step {step} gives {samples} rows, above the cap {PLOT_MAX_ROWS}")


def emit_plot_data(solution: InterdictionSolution, step: Fraction) -> str:
    """Tabular (lambda, y, f_star) samples at the given step.

    Every changepoint appears as an explicit row even when the step
    would jump over it.
    """
    lo, hi = solution.envelope.lo, solution.envelope.hi
    _check_plot_step(step, lo, hi)
    points = {lo, hi}
    lam = lo
    while lam <= hi:
        points.add(lam)
        lam += step
    for cp in solution.changepoints:
        points.add(cp.lam)
    rows = ["lambda\ty\tf_star"]
    for lam in sorted(points):
        value = solution.envelope.evaluate(lam)
        y = "inf" if value == POS_INF else format_rational(value)
        f_star = ",".join(str(e) for e in solution.f_star_at(lam))
        rows.append(f"{format_rational(lam)}\t{y}\t{f_star}")
    return "\n".join(rows) + "\n"


def _check_enumeration_cap() -> None:
    try:
        enumeration_cap()
    except ValueError as exc:
        raise CliError(EXIT_PARSE, str(exc))


def _cmd_solve(args) -> int:
    _check_enumeration_cap()
    if args.samples < 0:
        raise CliError(EXIT_PARSE, f"--samples must be non-negative, got {args.samples}")
    instance = parse_instance(args.instance)
    if args.algorithm not in ALGORITHMS:
        raise CliError(EXIT_PARSE, f"unknown algorithm {args.algorithm!r}")
    if args.emit_plot:  # a bad step must not wait for the solve
        step = parse_rational(args.step, "--step")
        _check_plot_step(step, instance.interval.lo, instance.interval.hi)
    if args.verify:  # a verification above the enumeration cap is refused before the solve
        try:
            check_verification_cap(instance, args.samples)
        except EnumerationCapExceeded as exc:
            raise CliError(EXIT_CAP, f"verification: {exc}")
    start = time.perf_counter()
    try:
        solution = solve(instance, args.algorithm)
    except EnumerationCapExceeded as exc:
        raise CliError(EXIT_CAP, str(exc))
    wall = time.perf_counter() - start
    report, code = None, EXIT_OK
    if args.verify:
        report = verify_solution(instance, solution, extra_samples=args.samples)
        if not report.ok:
            code = EXIT_VERIFY
    data = solution_to_dict(solution, wall, report)
    if args.emit_plot:
        _write(args.emit_plot, emit_plot_data(solution, step))
    try:
        _dump_json(data, args.output)
    except CliError:
        if args.emit_plot:  # leave no half of the output behind
            os.remove(args.emit_plot)
        raise
    if code == EXIT_VERIFY:
        print("verification FAILED:", file=sys.stderr)
        for line in data["meta"]["verification"]["failures"]:
            print(f"  {line}", file=sys.stderr)
    return code


# ---------------------------------------------------------------------------
# generate


def generate_random(family: str, m: int, k_or_vertices: int, ell: int, seed: int) -> dict:
    """Deterministic random instance file content for a seed.

    Graphic instances are made (ell+1)-edge-connected by giving every
    base edge ell parallel copies at a heavy constant weight, so no
    deletion within budget can disconnect the graph; uniform needs
    ell <= m - k and partition blocks exceed their capacity by ell.
    """
    rng = random.Random((family, m, k_or_vertices, ell, seed).__repr__())
    if ell < 1:
        raise CliError(EXIT_PARSE, f"ell must be >= 1, got {ell}")
    base_budget = max(k_or_vertices - 1, m // (ell + 1))  # graphic: base edges, each with ell heavy copies
    elements = base_budget * (ell + 1) if family == "graphic" else m
    if elements > GENERATE_MAX_ELEMENTS:
        raise CliError(EXIT_CAP, f"{elements} elements to generate exceed the cap {GENERATE_MAX_ELEMENTS}")

    def rand_weight():
        return {"a": str(rng.randint(-20, 20)), "b": str(rng.randint(-10, 10))}

    if family == "graphic":
        vertices = k_or_vertices
        if vertices < 2:
            raise CliError(EXIT_PARSE, "graphic generation needs >= 2 vertices")
        base_edges = []
        order = list(range(vertices))
        rng.shuffle(order)
        for i in range(1, vertices):
            base_edges.append((order[rng.randrange(i)], order[i]))
        while len(base_edges) < base_budget:
            u, v = rng.randrange(vertices), rng.randrange(vertices)
            if u != v:
                base_edges.append((min(u, v), max(u, v)))
        edges, weights = [], []
        for u, v in base_edges:
            edges.append([u, v])
            weights.append(rand_weight())
            for _ in range(ell):
                edges.append([u, v])
                weights.append({"a": str(HEAVY_A), "b": "0"})
        matroid = {"type": "graphic", "num_vertices": vertices, "edges": edges}
    elif family == "uniform":
        k = k_or_vertices
        if not 1 <= k <= m or ell > m - k:
            raise CliError(EXIT_PARSE, f"uniform generation needs 1 <= k <= m and ell <= m-k, got m={m} k={k} ell={ell}")
        matroid = {"type": "uniform", "m": m, "k": k}
        weights = [rand_weight() for _ in range(m)]
    elif family == "partition":
        k = k_or_vertices
        if k < 1 or m < k * (ell + 1):
            raise CliError(EXIT_PARSE, f"partition generation needs m >= k*(ell+1), got m={m} k={k} ell={ell}")
        blocks = [i % k for i in range(m)]  # round-robin: every block gets >= ell+1 elements
        matroid = {"type": "partition", "blocks": blocks, "capacities": [1] * k}
        weights = [rand_weight() for _ in range(m)]
    else:
        raise CliError(EXIT_PARSE, f"unknown family {family!r} (pick graphic, uniform, or partition)")
    return {
        "matroid": matroid,
        "weights": weights,
        "ell": ell,
        "interval": {"lo": "-5", "hi": "5"},
    }


def _cmd_generate(args) -> int:
    data = generate_random(args.family, args.m, args.k, args.ell, args.seed)
    _dump_json(data, args.output)
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench


def first_difference(first: PiecewiseLinearFunction, other: PiecewiseLinearFunction) -> dict | None:
    """The smallest lam where other stops matching first, with the segment of each there.

    Both are envelopes over one domain, walked together by
    aligned_pieces; two pieces match when their lines and labels are
    equal.  None when they match everywhere.
    """
    for x0, _x1, pa, pb in aligned_pieces(first, other):
        if (pa.line, pa.label) != (pb.line, pb.label):
            return {
                "lambda": format_rational(x0),
                "first_segment": segment_to_dict(pa),
                "segment": segment_to_dict(pb),
            }
    return None


def bench(paths, algorithms) -> tuple[list[dict], int]:
    """Per (instance, algorithm): time, oracle calls, changepoint stats.

    Also cross-checks that all requested algorithms produce identical
    segment structures and that the changepoint count respects the
    worst-case bound; a violation flips the exit code to 3.  A row whose
    segments differ from the first algorithm's names where they part,
    as first_difference.  A solver that the enumeration cap refuses gets
    a row with its error instead and leaves the exit code alone.
    """
    rows = []
    code = EXIT_OK
    for path in paths:
        instance = parse_instance(path)
        m, k, ell = instance.ground_size, instance.rank, instance.ell
        bound = changepoint_bound(m, k, ell)
        baseline = None
        for algorithm in algorithms:
            start = time.perf_counter()
            try:
                solution = solve(instance, algorithm)
            except EnumerationCapExceeded as exc:
                rows.append({"instance": path, "algorithm": algorithm, "error": str(exc)})
                continue
            wall = time.perf_counter() - start
            segments = solution_to_dict(solution, wall)["segments"]
            agreed = True
            if baseline is None:
                baseline, baseline_envelope = segments, solution.envelope
            elif segments != baseline:
                agreed = False
                code = EXIT_VERIFY
            changepoints = len(solution.changepoints)
            if changepoints > bound:
                code = EXIT_VERIFY
            row = {
                "instance": path,
                "algorithm": algorithm,
                "m": m,
                "k": k,
                "ell": ell,
                "wall_time_s": round(wall, 6),
                "oracle_calls": solution.oracle_calls,
                "changepoints": changepoints,
                "changepoint_bound": bound,
                "bound_ratio": round(changepoints / bound, 6) if bound else 0.0,
                "agrees_with_first": agreed,
            }
            if not agreed:
                row["first_difference"] = first_difference(baseline_envelope, solution.envelope)
            rows.append(row)
    return rows, code


def _cmd_bench(args) -> int:
    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise CliError(EXIT_PARSE, "no algorithm given")
    for a in algorithms:
        if a not in ALGORITHMS:
            raise CliError(EXIT_PARSE, f"unknown algorithm {a!r}")
    _check_enumeration_cap()
    rows, code = bench(args.instances, algorithms)
    _dump_json(rows, args.output)
    return code


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="minterdict",
        description="Exact parametric matroid interdiction: most vital elements for every parameter value.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one instance file")
    p_solve.add_argument("instance", help="instance JSON file")
    p_solve.add_argument("--algorithm", default="brute", help="brute, uset, or tree")
    p_solve.add_argument("--verify", action="store_true", help="check the result against the enumeration oracle")
    p_solve.add_argument("--samples", type=int, default=50, help="extra random verification points")
    p_solve.add_argument("--emit-plot", metavar="PATH", help="write tabular plot samples to PATH")
    p_solve.add_argument("--step", default="1", help="plot sampling step (rational)")
    p_solve.add_argument("-o", "--output", help="solution JSON file (default: stdout)")
    p_solve.set_defaults(func=_cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a random instance file")
    p_gen.add_argument("family", help="graphic, uniform, or partition")
    p_gen.add_argument("--m", type=int, default=12, help="ground set size target")
    p_gen.add_argument("--k", type=int, default=4, help="rank (uniform/partition) or vertex count (graphic)")
    p_gen.add_argument("--ell", type=int, default=2, help="deletion budget")
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("-o", "--output", help="instance JSON file (default: stdout)")
    p_gen.set_defaults(func=_cmd_generate)

    p_bench = sub.add_parser("bench", help="time algorithms across instance files")
    p_bench.add_argument("instances", nargs="+", help="instance JSON files")
    p_bench.add_argument("--algorithms", default="brute,uset,tree", help="comma-separated list")
    p_bench.add_argument("-o", "--output", help="report JSON file (default: stdout)")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code


if __name__ == "__main__":
    sys.exit(main())
