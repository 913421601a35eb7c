"""Command-line front end: file formats, subcommands, exit codes."""

import json
import os
import shutil
import subprocess
import sys
from importlib.metadata import EntryPoint, entry_points
from pathlib import Path

import pytest

import matroid_interdiction.cli as cli
from matroid_interdiction.cli import (
    instance_from_dict,
    instance_to_dict,
    main,
    parse_instance,
)
from matroid_interdiction.interdiction import changepoint_bound
from matroid_interdiction.oracle import VerificationReport

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


@pytest.mark.parametrize(
    "mangle",
    [
        lambda d: d.pop("ell"),
        lambda d: d.update(ell=True),
        lambda d: d.update(weights=d["weights"][:-1]),
        lambda d: d["weights"][0].update(a="abc"),
        lambda d: d["interval"].update(lo="1/0"),
        lambda d: d["matroid"].update(type="fancy"),
        lambda d: d["interval"].update(lo="inf"),
        lambda d: d["interval"].update(hi="-inf"),
    ],
)
def test_malformed_instances_exit_2(tmp_path, capsys, mangle):
    payload = json.loads(json.dumps(DIAMOND))
    mangle(payload)
    assert main(["solve", write_instance(tmp_path, payload)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "Traceback" not in err


def test_unreadable_and_unparsable_files_exit_2(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    assert main(["solve", str(bad)]) == 2
    capsys.readouterr()


# ---------------------------------------------------------------------------
# instance round trips


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
    assert again.matroid.family_kind == inst.matroid.family_kind
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
