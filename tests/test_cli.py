"""Command-line front end: file formats, subcommands, exit codes."""

import json
import os
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest

import matroid_interdiction.cli as cli
from matroid_interdiction.cli import (
    format_rational,
    instance_from_dict,
    main,
    parse_instance,
)
from matroid_interdiction.envelope import PiecewiseLinearFunction
from matroid_interdiction.interdiction import SegmentLabel, changepoint_bound, solve
from matroid_interdiction.oracle import VerificationReport
from matroid_interdiction.parametric import Interval, MatroidInstance

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
# The directory the suite imported the package from (``src`` in a checkout).
PACKAGE_ROOT = Path(cli.__file__).resolve().parents[1]

DIAMOND = {
    "matroid": {
        "type": "graphic",
        "num_vertices": 4,
        "edges": [[0, 1], [1, 2], [2, 3], [0, 3], [0, 2]],
    },
    "weights": [
        {"a": "1", "b": "2"},
        {"a": "4", "b": "-1"},
        {"a": "2", "b": "0"},
        {"a": "6", "b": "-2"},
        {"a": "3", "b": "1"},
    ],
    "ell": 1,
    "interval": {"lo": "-2", "hi": "2"},
}


def write_instance(tmp_path, payload=None, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload if payload is not None else DIAMOND))
    return str(path)


# ---------------------------------------------------------------------------
# solve


def test_solve_writes_solution_file(tmp_path):
    out = tmp_path / "sol.json"
    code = main(["solve", write_instance(tmp_path), "-o", str(out)])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["meta"]["algorithm"] == "brute"
    assert data["meta"]["oracle_calls"] > 0
    for seg in data["segments"]:
        assert set(seg) == {"lo", "hi", "slope", "intercept", "f_star", "basis"}
        assert len(seg["f_star"]) == 1
    assert data["segments"][0]["lo"] == "-2"
    assert data["segments"][-1]["hi"] == "2"
    for cp in data["changepoints"]:
        assert cp["kind"] in ("breakpoint", "interdiction-point")


def test_solve_defaults_to_stdout(tmp_path, capsys):
    assert main(["solve", write_instance(tmp_path), "--algorithm", "tree"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["meta"]["algorithm"] == "tree"


def test_solve_verify_ok(tmp_path):
    out = tmp_path / "sol.json"
    code = main(
        ["solve", write_instance(tmp_path), "--algorithm", "uset", "--verify", "-o", str(out)]
    )
    assert code == 0
    verification = json.loads(out.read_text())["meta"]["verification"]
    assert verification["ok"] is True
    assert verification["samples_checked"] >= 50
    assert verification["failures"] == []


def test_solve_verify_failure_exits_3(tmp_path, monkeypatch, capsys):
    report = VerificationReport(False, 4, ("lam=0: claimed value 3, oracle value 4",))
    monkeypatch.setattr(cli, "verify_solution", lambda *a, **kw: report)
    code = main(["solve", write_instance(tmp_path), "--verify", "-o", str(tmp_path / "s.json")])
    assert code == 3
    assert "verification FAILED" in capsys.readouterr().err


def test_isolated_vertices_leave_the_segments_alone(tmp_path):
    # the 4 edges touch 3 of 10^6 vertices; relabelled onto 3 vertices
    # they must solve to the same segments with every solver
    hub, mid, far = 0, 500_000, 999_999
    big = {
        **DIAMOND,
        "matroid": {
            "type": "graphic",
            "num_vertices": 10**6,
            "edges": [[hub, far], [far, mid], [hub, mid], [mid, far]],
        },
        "weights": DIAMOND["weights"][:4],
    }
    small = {**big, "matroid": {"type": "graphic", "num_vertices": 3, "edges": [[0, 2], [2, 1], [0, 1], [1, 2]]}}
    paths = {"big": write_instance(tmp_path, big, "big.json"), "small": write_instance(tmp_path, small, "small.json")}
    segments = {}
    for algorithm in ("brute", "uset", "tree"):
        for size, path in paths.items():
            out = tmp_path / f"{size}-{algorithm}.json"
            assert main(["solve", path, "--algorithm", algorithm, "--verify", "-o", str(out)]) == 0
            segments[size, algorithm] = json.loads(out.read_text())["segments"]
    assert len({json.dumps(segs) for segs in segments.values()}) == 1


def test_solve_unknown_algorithm_exits_2(tmp_path, capsys):
    assert main(["solve", write_instance(tmp_path), "--algorithm", "magic"]) == 2
    assert "unknown algorithm" in capsys.readouterr().err


def test_solve_enumeration_cap_exits_4(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "3")
    assert main(["solve", write_instance(tmp_path)]) == 4
    assert "enumeration cap" in capsys.readouterr().err


def test_verify_enumeration_cap_exits_4(tmp_path, monkeypatch, capsys):
    # tree's 3 * C(2, 0) = 3 candidates per cell fit the cap, so only
    # the verifier's C(5, 1) = 5 per sample exceeds it
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "4")
    path, out = write_instance(tmp_path), str(tmp_path / "sol.json")
    assert main(["solve", path, "--algorithm", "tree", "-o", out]) == 0
    assert main(["solve", path, "--algorithm", "tree", "--verify", "-o", out]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: verification: 5 deletion sets")
    assert "enumeration cap 4" in err and "Traceback" not in err


def test_negative_samples_exits_2(tmp_path, capsys):
    out = str(tmp_path / "sol.json")
    assert main(["solve", write_instance(tmp_path), "--verify", "--samples", "-3", "-o", out]) == 2
    assert capsys.readouterr().err.startswith("error: --samples must be non-negative")
    assert not os.path.exists(out)


def test_samples_above_the_cap_exit_4_before_the_solve(tmp_path, monkeypatch, capsys):
    # 10^9 samples * C(5, 1) deletion sets exceed the default cap; drawing
    # the points alone would take hours, so the check comes first
    monkeypatch.setattr(cli, "solve", lambda *a: pytest.fail("solved above the verification cap"))
    out = str(tmp_path / "sol.json")
    start = time.perf_counter()
    code = main(["solve", write_instance(tmp_path), "--verify", "--samples", "1000000000", "-o", out])
    assert time.perf_counter() - start < 1
    assert code == 4
    assert capsys.readouterr().err.startswith("error: verification: 5000000000 deletion sets")
    assert not os.path.exists(out)


@pytest.mark.parametrize("algorithm", ["brute", "uset", "tree"])
def test_witness_search_cap_exits_4(tmp_path, monkeypatch, capsys, algorithm):
    # only the last 3 of 30 edges form a small cut: the witness search
    # of uset and tree would enumerate all C(30, 3) = 4060 subsets
    payload = {
        "matroid": {"type": "graphic", "num_vertices": 3, "edges": [[0, 1]] * 27 + [[1, 2]] * 3},
        "weights": [{"a": str(i % 5), "b": str((-1) ** i)} for i in range(30)],
        "ell": 3,
        "interval": {"lo": "-2", "hi": "2"},
    }
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "1000")
    assert main(["solve", write_instance(tmp_path, payload), "--algorithm", algorithm]) == 4
    assert "enumeration cap 1000" in capsys.readouterr().err


def test_tree_candidate_cap_exits_4(tmp_path, monkeypatch, capsys):
    # C(60, 5) = 5,461,512 deletion sets stop brute and uset at once;
    # tree's 30 * C(33, 4) = 1,227,600 candidates per cell stop it too
    inst = str(tmp_path / "big.json")
    assert main(["generate", "uniform", "--m", "60", "--k", "30", "--ell", "5", "-o", inst]) == 0
    for algorithm in ("brute", "uset", "tree"):
        assert main(["solve", inst, "--algorithm", algorithm]) == 4
    assert "1227600 deletion sets" in capsys.readouterr().err
    # on the diamond (k = 3, ell = 1) the tree holds 3 candidates
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "2")
    assert main(["solve", write_instance(tmp_path), "--algorithm", "tree"]) == 4
    assert "enumeration cap 2" in capsys.readouterr().err
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "3")
    assert main(["solve", write_instance(tmp_path), "--algorithm", "tree", "-o", "-"]) == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "INST", "-o", "OUT"],
        ["solve", "INST", "--emit-plot", "OUT", "-o", "-"],
        ["generate", "uniform", "--m", "5", "--k", "2", "--ell", "1", "-o", "OUT"],
        ["bench", "INST", "-o", "OUT"],
    ],
)
def test_unwritable_output_exits_2(tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "out")
    argv = [{"INST": write_instance(tmp_path), "OUT": out}.get(a, a) for a in argv]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {out}: ") and "Traceback" not in err


@pytest.mark.parametrize("raw", ["abc", "-5"])
@pytest.mark.parametrize("command", ["solve", "bench"])
def test_bad_enumeration_cap_exits_2(tmp_path, monkeypatch, capsys, raw, command):
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", raw)
    out = str(tmp_path / "out.json")
    assert main([command, write_instance(tmp_path), "-o", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: INTERDICTION_ENUM_CAP=")
    assert "non-negative integer" in err and "Traceback" not in err
    assert not os.path.exists(out)


# per way to break DIAMOND, what its error message says
MALFORMED = {
    lambda d: d.pop("ell"): "missing field 'ell'",
    lambda d: d.update(ell=True): "ell must be an integer, got True",
    lambda d: d.update(weights=d["weights"][:-1]): "expected 5 weights, got 4",
    lambda d: d["weights"][0].update(a="abc"): "weights[0].a: not a rational: 'abc'",
    lambda d: d["interval"].update(lo="1/0"): "interval.lo: not a rational: '1/0'",
    lambda d: d["matroid"].update(type="fancy"): "unknown matroid family 'fancy'",
    lambda d: d["interval"].update(lo="inf"): "interval lo must be a Fraction or -inf",
    lambda d: d["interval"].update(hi="-inf"): "interval hi must be a Fraction or +inf",
    lambda d: d["weights"][0].update(a=1.5): "weights[0].a: expected an integer or a rational string, got 1.5",
    lambda d: d["weights"][0].update(a=True): "weights[0].a: expected an integer or a rational string, got True",
    lambda d: d["weights"][0].update(b=None): "weights[0].b: expected an integer or a rational string, got None",
    lambda d: d["weights"][0].update(a="inf"): "weights[0].a: must be finite",
    lambda d: d.update(weights={}): "weights must be a list",
}


@pytest.mark.parametrize("mangle", MALFORMED)
def test_malformed_instances_exit_2(tmp_path, capsys, mangle):
    payload = json.loads(json.dumps(DIAMOND))
    mangle(payload)
    assert main(["solve", write_instance(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and MALFORMED[mangle] in err and "Traceback" not in err


def test_json_integer_weights_read_as_their_string_form(tmp_path):
    numbers = {**DIAMOND, "weights": [{"a": int(w["a"]), "b": int(w["b"])} for w in DIAMOND["weights"]]}
    segments = []
    for payload, name in ((DIAMOND, "strings.json"), (numbers, "numbers.json")):
        out = tmp_path / f"out-{name}"
        assert main(["solve", write_instance(tmp_path, payload, name), "-o", str(out)]) == 0
        segments.append(json.loads(out.read_text())["segments"])
    assert segments[0] == segments[1]


@pytest.mark.parametrize("raw", ["1e-3000000", "1e3000000", "2E1"])
def test_exponent_notation_exits_2(tmp_path, capsys, raw):
    # "1e3000000" would build a 3,000,001-digit int before any digit limit applies
    payload = {
        "matroid": {"type": "uniform", "m": 3, "k": 1},
        "weights": [{"a": raw, "b": "0"}, {"a": "1", "b": "1"}, {"a": "2", "b": "2"}],
        "ell": 1,
        "interval": {"lo": "-1", "hi": "1"},
    }
    assert main(["solve", write_instance(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "weights[0].a" in err and "exponent notation" in err and "Traceback" not in err


def test_a_uniform_ground_set_past_its_weights_exits_2(tmp_path, capsys):
    # the instance checks m against its weights; the uniform family stores
    # nothing per element, so building it first allocates no m-sized table
    payload = {
        "matroid": {"type": "uniform", "m": 10**15, "k": 1},
        "weights": [{"a": "0", "b": "1"}],
        "ell": 1,
        "interval": {"lo": "-1", "hi": "1"},
    }
    assert main(["solve", write_instance(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert f"expected {10**15} weights, got 1" in err and "Traceback" not in err


def test_breakpoints_past_the_digit_limit_are_written_exactly(tmp_path):
    # 3,002-digit denominators give 6,005-character breakpoints, past the
    # 4,300-digit limit of str() on ints; Decimal reads them back
    payload = {
        "matroid": {"type": "uniform", "m": 3, "k": 1},
        "weights": [{"a": f"1/{10**3001 + d}", "b": str(i)} for i, d in enumerate((1, 3, 7))],
        "ell": 1,
        "interval": {"lo": "-1", "hi": "1"},
    }
    out = tmp_path / "sol.json"
    assert main(["solve", write_instance(tmp_path, payload), "-o", str(out)]) == 0
    written = [seg["hi"] for seg in json.loads(out.read_text())["segments"]]
    assert max(map(len, written)) > 6000

    def exact(text):
        p, _, q = text.partition("/")
        return Fraction(int(Decimal(p)), int(Decimal(q or "1")))

    want = solve(instance_from_dict(payload), "brute").envelope.pieces
    assert [exact(hi) for hi in written] == [piece.hi for piece in want]


@pytest.mark.parametrize(
    "matroid, field",
    [
        ({"type": "uniform", "m": 3, "k": 1.9}, "k"),
        ({"type": "uniform", "m": 3, "k": True}, "k"),
        ({"type": "uniform", "m": 3.0, "k": 1}, "m"),
        ({"type": "graphic", "num_vertices": 2.5, "edges": [[0, 1]] * 3}, "num_vertices"),
        ({"type": "graphic", "num_vertices": 2, "edges": [[0, 1], [0, 1.7], [0, 1]]}, "edges[1][1]"),
        ({"type": "graphic", "num_vertices": 2, "edges": [[0, 1], [0, 1], [False, 1]]}, "edges[2][0]"),
        ({"type": "graphic", "num_vertices": 2, "edges": "0-1"}, "edges"),
        ({"type": "partition", "blocks": "011", "capacities": [1, 1]}, "blocks"),
        ({"type": "partition", "blocks": [0.5, 1, 1], "capacities": [1, 1]}, "blocks[0]"),
        ({"type": "partition", "blocks": [0, 1, 1], "capacities": [1, "1"]}, "capacities[1]"),
        ({"type": "explicit", "m": 3, "bases": [[0], [1.0]]}, "bases[1][0]"),
        ({"type": "explicit", "m": 3, "bases": [[0], 2]}, "bases[1]"),
    ],
)
def test_non_integer_matroid_fields_exit_2(tmp_path, capsys, matroid, field):
    payload = {
        "matroid": matroid,
        "weights": [{"a": str(i), "b": "1"} for i in range(3)],
        "ell": 1,
        "interval": {"lo": "-1", "hi": "1"},
    }
    assert main(["solve", write_instance(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert f"matroid: {field} must be " in err and "Traceback" not in err


@pytest.mark.parametrize("edge", [[0, 1, 1], [0], []])
def test_an_edge_without_two_endpoints_exits_2(tmp_path, capsys, edge):
    payload = {
        "matroid": {"type": "graphic", "num_vertices": 2, "edges": [[0, 1], [0, 1], edge]},
        "weights": [{"a": str(i), "b": "1"} for i in range(3)],
        "ell": 1,
        "interval": {"lo": "-1", "hi": "1"},
    }
    assert main(["solve", write_instance(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert f"matroid: edges[2] must hold 2 endpoints, got {edge}" in err and "Traceback" not in err


def test_unreadable_and_unparsable_files_exit_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    for content in (b"{nope", b"\xff\xfe{", b'{"ell": 1' + b"0" * 5000 + b"}"):
        bad.write_bytes(content)  # not JSON, not UTF-8, an int past the digit limit
        assert main(["solve", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "malformed JSON" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_deeply_nested_json_exits_2(tmp_path, capsys, command):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000 + "]" * 200_000)  # past the decoder's recursion limit
    assert main([command, str(deep)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "malformed JSON" in err and "Traceback" not in err


# ---------------------------------------------------------------------------
# instance round trips


def family_kind(matroid) -> str:
    return matroid._family.kind


def instance_to_dict(instance: MatroidInstance) -> dict:
    """Serializable form of an instance; inverse of parse_instance."""
    fam = instance.matroid._family
    kind = family_kind(instance.matroid)
    if kind == "graphic":
        # the touched vertices, renumbered densely: the same cycle matroid
        matroid = {"type": kind, "num_vertices": max(1, fam._touched), "edges": [list(e) for e in fam._ends]}
    elif kind == "uniform":
        matroid = {"type": kind, "m": fam.ground_size, "k": fam.capacities[0]}
    elif kind == "partition":
        matroid = {"type": kind, "blocks": list(fam.blocks), "capacities": list(fam.capacities)}
    else:
        matroid = {"type": kind, "m": fam.ground_size, "bases": sorted(sorted(b) for b in fam.bases)}
    return {
        "matroid": matroid,
        "weights": [{"a": format_rational(w.a), "b": format_rational(w.b)} for w in instance.weights],
        "ell": instance.ell,
        "interval": {"lo": format_rational(instance.interval.lo), "hi": format_rational(instance.interval.hi)},
    }


@pytest.mark.parametrize(
    "payload",
    [
        DIAMOND,
        {
            "matroid": {"type": "uniform", "m": 6, "k": 3},
            "weights": [{"a": str(i), "b": "-1"} for i in range(6)],
            "ell": 2,
            "interval": {"lo": "-inf", "hi": "inf"},
        },
        {
            "matroid": {"type": "partition", "blocks": [0, 0, 1, 1], "capacities": [1, 1]},
            "weights": [{"a": "1/2", "b": "0"}] * 4,
            "ell": 1,
            "interval": {"lo": "0", "hi": "10"},
        },
        {
            "matroid": {"type": "explicit", "m": 3, "bases": [[0, 1], [0, 2]]},
            "weights": [{"a": "1", "b": "1"}] * 3,
            "ell": 1,
            "interval": {"lo": "-1", "hi": "1"},
        },
    ],
)
def test_instance_dict_round_trip(payload):
    inst = instance_from_dict(payload)
    again = instance_from_dict(instance_to_dict(inst))
    assert again.weights == inst.weights
    assert again.ell == inst.ell
    assert again.interval == inst.interval
    assert family_kind(again.matroid) == family_kind(inst.matroid)
    assert again.matroid.ground_size == inst.matroid.ground_size


# ---------------------------------------------------------------------------
# generate


def test_generate_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["generate", "graphic", "--m", "9", "--k", "4", "--ell", "2", "--seed", "7"]
    assert main(argv + ["-o", str(a)]) == 0
    assert main(argv + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    parse_instance(str(a))


def test_generated_graphic_survives_the_budget(tmp_path):
    inst = tmp_path / "gen.json"
    assert main(["generate", "graphic", "--m", "9", "--k", "4", "--ell", "2", "-o", str(inst)]) == 0
    out = tmp_path / "sol.json"
    assert main(["solve", str(inst), "--algorithm", "uset", "-o", str(out)]) == 0
    for seg in json.loads(out.read_text())["segments"]:
        assert seg["slope"] != "inf"


def test_generate_rejects_infeasible_parameters(tmp_path, capsys):
    assert main(["generate", "uniform", "--m", "4", "--k", "3", "--ell", "2"]) == 2
    assert main(["generate", "nonesuch"]) == 2
    capsys.readouterr()
    for argv, message in [
        (["uniform", "--m", "5", "--k", "2", "--ell", "0"], "ell must be >= 1, got 0"),
        (["graphic", "--k", "1"], "graphic generation needs >= 2 vertices"),
        (["partition", "--m", "3", "--k", "2", "--ell", "1"], "partition generation needs m >= k*(ell+1), got m=3 k=2 ell=1"),
    ]:
        assert main(["generate", *argv]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, elements",
    [
        (["uniform", "--m", "1000001", "--k", "1", "--ell", "1"], 1_000_001),
        (["partition", "--m", "1000001", "--k", "1", "--ell", "1"], 1_000_001),
        # 333,334 base edges, each with its 2 heavy copies
        (["graphic", "--m", "1000002", "--k", "2", "--ell", "2"], 1_000_002),
        (["graphic", "--m", "3", "--k", "500002", "--ell", "1"], 1_000_002),
        (["uniform", "--m", str(10**12), "--k", "1", "--ell", "1"], 10**12),
        (["graphic", "--k", str(10**12)], 3 * (10**12 - 1)),
        (["graphic", "--m", "12", "--k", "4", "--ell", str(10**12)], 3 * (10**12 + 1)),
    ],
)
def test_generate_refuses_instances_above_the_size_cap(capsys, argv, elements):
    # refused before anything is built, so the huge values return at once
    assert main(["generate", *argv]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {elements} elements to generate exceed the cap {cli.GENERATE_MAX_ELEMENTS}\n"


# ---------------------------------------------------------------------------
# plot emission


def test_emit_plot_rows(tmp_path):
    plot = tmp_path / "plot.tsv"
    out = tmp_path / "sol.json"
    code = main(
        [
            "solve",
            write_instance(tmp_path),
            "--emit-plot",
            str(plot),
            "--step",
            "1/2",
            "-o",
            str(out),
        ]
    )
    assert code == 0
    lines = plot.read_text().splitlines()
    assert lines[0] == "lambda\ty\tf_star"
    rows = [line.split("\t") for line in lines[1:]]
    assert all(len(row) == 3 for row in rows)
    lams = [row[0] for row in rows]
    assert lams[0] == "-2" and lams[-1] == "2"
    assert len(rows) >= 9  # the step grid alone has 9 points
    claimed = {cp["lambda"] for cp in json.loads(out.read_text())["changepoints"]}
    assert claimed <= set(lams)


def test_emit_plot_row_cap_exits_4(tmp_path, monkeypatch, capsys):
    inst = tmp_path / "gen.json"
    assert main(["generate", "uniform", "--m", "5", "--k", "2", "--ell", "1", "-o", str(inst)]) == 0
    plot = tmp_path / "plot.tsv"
    # [-5, 5] at this step would be 10^10 rows
    assert main(["solve", str(inst), "--emit-plot", str(plot), "--step", "1/1000000000"]) == 4
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "rows" in captured.err
    assert captured.out == "" and not plot.exists()
    # the cap counts step samples and admits exactly PLOT_MAX_ROWS of them
    monkeypatch.setattr(cli, "PLOT_MAX_ROWS", 9)
    small = write_instance(tmp_path)  # interval [-2, 2]
    assert main(["solve", small, "--emit-plot", str(plot), "--step", "1/2", "-o", "-"]) == 0
    assert main(["solve", small, "--emit-plot", str(plot), "--step", "4/9", "-o", "-"]) == 4
    capsys.readouterr()


@pytest.mark.parametrize(
    "step, interval, code",
    [
        ("abc", {"lo": "-2", "hi": "2"}, 2),
        ("0", {"lo": "-2", "hi": "2"}, 2),
        ("-1/2", {"lo": "-2", "hi": "2"}, 2),
        ("1", {"lo": "-inf", "hi": "2"}, 2),
        ("1/1000000000", {"lo": "-2", "hi": "2"}, 4),
    ],
)
def test_bad_plot_step_exits_before_solving(tmp_path, monkeypatch, capsys, step, interval, code):
    def no_solve(*_args):
        raise AssertionError("solved before the plot step was checked")

    monkeypatch.setattr(cli, "solve", no_solve)
    inst = write_instance(tmp_path, {**DIAMOND, "interval": interval})
    plot, out = tmp_path / "plot.tsv", tmp_path / "sol.json"
    assert main(["solve", inst, "--emit-plot", str(plot), f"--step={step}", "-o", str(out)]) == code
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err
    assert not plot.exists() and not out.exists()


def test_failed_solution_write_removes_the_plot(tmp_path, capsys):
    plot, out = tmp_path / "plot.tsv", tmp_path / "missing" / "sol.json"
    argv = ["solve", write_instance(tmp_path), "--emit-plot", str(plot), "-o", str(out)]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot write {out}: ")
    assert not plot.exists()


# ---------------------------------------------------------------------------
# bench


def test_bench_cross_checks_algorithms(tmp_path):
    first = write_instance(tmp_path, name="one.json")
    second = write_instance(
        tmp_path,
        {
            "matroid": {"type": "uniform", "m": 5, "k": 2},
            "weights": [{"a": str(3 - i), "b": str(i % 3)} for i in range(5)],
            "ell": 2,
            "interval": {"lo": "-3", "hi": "3"},
        },
        name="two.json",
    )
    out = tmp_path / "bench.json"
    code = main(["bench", first, second, "--algorithms", "brute,uset,tree", "-o", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 6
    for row in rows:
        assert row["agrees_with_first"] is True
        assert row["changepoints"] <= row["changepoint_bound"]
        assert row["changepoint_bound"] == changepoint_bound(row["m"], row["k"], row["ell"])
        assert row["oracle_calls"] > 0


def test_bench_gives_a_capped_solver_an_error_row(tmp_path, monkeypatch):
    # the diamond's 5 deletion sets exceed the cap; its tree holds 3 candidates
    monkeypatch.setenv("INTERDICTION_ENUM_CAP", "4")
    inst, out = write_instance(tmp_path), tmp_path / "bench.json"
    assert main(["bench", inst, "--algorithms", "brute,uset,tree", "-o", str(out)]) == 0
    brute, uset, tree = json.loads(out.read_text())
    assert brute == {
        "instance": inst,
        "algorithm": "brute",
        "error": "5 deletion sets to enumerate exceed the enumeration cap 4",
    }
    assert (uset["algorithm"], tree["algorithm"], tree["agrees_with_first"]) == ("uset", "tree", True)


def test_uset_and_tree_agree_past_the_brute_cap(tmp_path, monkeypatch, capsys):
    # C(120, 3) = 280,840 deletion sets: past the default enumeration
    # cap, so brute is refused, and only the paper's algorithms, which
    # enumerate no such family, solve it
    monkeypatch.delenv("INTERDICTION_ENUM_CAP", raising=False)
    inst = str(tmp_path / "big.json")
    assert main(["generate", "graphic", "--m", "120", "--k", "5", "--ell", "3", "--seed", "0", "-o", inst]) == 0
    assert main(["solve", inst, "--algorithm", "brute"]) == 4
    assert capsys.readouterr().err == "error: 280840 deletion sets to enumerate exceed the enumeration cap 200000\n"
    out = tmp_path / "bench.json"
    assert main(["bench", inst, "--algorithms", "uset,tree", "-o", str(out)]) == 0
    uset, tree = json.loads(out.read_text())
    assert tree["agrees_with_first"] is True
    assert uset["changepoints"] == tree["changepoints"] == 29


def test_bench_names_where_solvers_part(tmp_path):
    # ROADMAP item 1's tied-maximizer reproducer: uset splits at lam=1,
    # taking F=(1,) on [1, 2], where brute keeps F=(0,) on [-2, 2]
    tie = {
        "matroid": {"type": "uniform", "m": 3, "k": 1},
        "weights": [{"a": "-2", "b": "0"}, {"a": "-1", "b": "-1"}, {"a": "-1", "b": "-1"}],
        "ell": 1,
        "interval": {"lo": "-2", "hi": "2"},
    }
    out = tmp_path / "bench.json"
    assert main(["bench", write_instance(tmp_path, tie), "--algorithms", "brute,uset", "-o", str(out)]) == 3
    brute, uset = json.loads(out.read_text())
    assert brute["agrees_with_first"] is True and "first_difference" not in brute
    assert uset["agrees_with_first"] is False
    line = {"slope": "-1", "intercept": "-1"}
    assert uset["first_difference"] == {
        "lambda": "1",
        "first_segment": {"lo": "-2", "hi": "2", **line, "f_star": [0], "basis": [1]},
        "segment": {"lo": "1", "hi": "2", **line, "f_star": [1], "basis": [2]},
    }


def test_first_difference_walks_both_piece_lists():
    # uset's two pieces against brute's one: equal on [-2, 1], then apart;
    # a point domain parts at its one point
    tie = instance_from_dict(
        {
            "matroid": {"type": "uniform", "m": 3, "k": 1},
            "weights": [{"a": "-2", "b": "0"}, {"a": "-1", "b": "-1"}, {"a": "-1", "b": "-1"}],
            "ell": 1,
            "interval": {"lo": "-2", "hi": "2"},
        }
    )
    brute, uset = solve(tie, "brute").envelope, solve(tie, "uset").envelope
    assert cli.first_difference(brute, brute) is None
    assert cli.first_difference(uset, brute)["lambda"] == "1"
    point = MatroidInstance(tie.matroid, tie.weights, 1, Interval(Fraction(2), Fraction(2)))
    at_two = solve(point, "brute").envelope
    assert cli.first_difference(at_two, at_two) is None
    moved = PiecewiseLinearFunction.from_line(Fraction(2), Fraction(2), at_two.pieces[0].line, SegmentLabel((2,), (0,)))
    assert cli.first_difference(at_two, moved)["lambda"] == "2"


def test_bench_rank_zero_instance(tmp_path):
    payload = {
        "matroid": {"type": "uniform", "m": 3, "k": 0},
        "weights": [{"a": str(i), "b": "1"} for i in range(3)],
        "ell": 1,
        "interval": {"lo": "-1", "hi": "1"},
    }
    out = tmp_path / "bench.json"
    assert main(["bench", write_instance(tmp_path, payload), "-o", str(out)]) == 0
    for row in json.loads(out.read_text()):
        assert (row["k"], row["changepoints"], row["changepoint_bound"]) == (0, 0, 0)


def test_bench_unknown_algorithm_exits_2(tmp_path, capsys):
    assert main(["bench", write_instance(tmp_path), "--algorithms", "brute,warp"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("algorithms", [",", "", " , "])
def test_bench_without_algorithm_exits_2(tmp_path, capsys, algorithms):
    out = tmp_path / "bench.json"
    assert main(["bench", write_instance(tmp_path), "--algorithms", algorithms, "-o", str(out)]) == 2
    assert capsys.readouterr().err == "error: no algorithm given\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# console script


def _declared_console_script(name):
    """The ``module:attr`` target of console script ``name``.

    Installed metadata is what pip wrote the wrapper from, so it wins;
    a source checkout falls back to ``[project.scripts]`` in pyproject.toml.
    """
    for ep in entry_points(group="console_scripts"):
        if ep.name == name:
            return ep
    tomllib = pytest.importorskip("tomllib")
    with open(PYPROJECT, "rb") as fh:
        value = tomllib.load(fh)["project"]["scripts"][name]
    return EntryPoint(name, value, "console_scripts")


def _run_minterdict(argv):
    """Run ``argv`` against the source tree this suite imported, not a stale install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(PACKAGE_ROOT), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(argv, capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["matroid"] == {"type": "uniform", "m": 5, "k": 2}


def test_console_script_is_installed():
    args = ["generate", "uniform", "--m", "5", "--k", "2", "--ell", "1"]
    ep = _declared_console_script("minterdict")
    # The same call pip's generated wrapper makes.
    func = ep.attr.split(".")[0]
    wrapper = f"import sys; from {ep.module} import {func}; sys.exit({ep.attr}())"
    _run_minterdict([sys.executable, "-c", wrapper, *args])
    exe = shutil.which("minterdict")
    if exe:
        _run_minterdict([exe, *args])


def test_python_dash_m_runs_the_cli():
    args = ["generate", "uniform", "--m", "5", "--k", "2", "--ell", "1"]
    _run_minterdict([sys.executable, "-m", "matroid_interdiction", *args])
