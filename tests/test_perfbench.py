"""The benchmark's traced run wraps functions that exist in the package."""

import importlib
import sys
from importlib.util import module_from_spec, spec_from_file_location
from pathlib import Path

from matroid_interdiction import cli
from matroid_interdiction.interdiction import solve

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_run(monkeypatch):
    """Import perfbench/run.py without writing bytecode next to it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for helper in ("spans", "workloads"):  # run.py imports these by bare name
        monkeypatch.delitem(sys.modules, helper, raising=False)
    spec = spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    run = module_from_spec(spec)
    spec.loader.exec_module(run)
    for helper in ("spans", "workloads"):
        monkeypatch.delitem(sys.modules, helper, raising=False)
    return run


def test_traced_functions_resolve(monkeypatch):
    run = load_run(monkeypatch)
    assert run.TRACED
    for module, attr, layer in run.TRACED:
        assert module in run.Program.MODULES, module
        caller = importlib.import_module(f"{run.PROGRAM}.{module}")
        assert callable(getattr(caller, attr, None)), f"{module}.{attr} is gone"
        # the layer is named after the module that defines the function
        home, name = layer.rsplit(".", 1)
        defined = importlib.import_module(f"{run.PROGRAM}.{home}")
        assert getattr(caller, attr) is getattr(defined, name), layer
    matroid = importlib.import_module(f"{run.PROGRAM}.matroid")
    assert callable(matroid.Matroid.is_independent)


def test_anchor_oracle_calls(monkeypatch):
    # the pin that the benchmark's --anchor checks, solved with the package
    # the suite imported: run.anchor() drops and re-imports the package,
    # which would split its classes from the ones the other tests hold
    run = load_run(monkeypatch)
    instance = cli.instance_from_dict(run.padded_graphic(**run.ANCHOR), "anchor")
    calls = {solver: solve(instance, solver).oracle_calls for solver in run.ANCHOR_CALLS}
    assert calls == run.ANCHOR_CALLS
