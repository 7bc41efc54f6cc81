"""The benchmark's hold on entspan: the names it reaches in by, and the files its checks read.

``perfbench/tracer.py`` patches each ``TARGETS`` entry by module and
attribute and silently drops a missing one from its metrics, and
``perfbench/child.py`` records ``entspan._kernels.USING_NUMBA``; the
tracer also reads ``minimize_sigma_r``'s restart count by position.  Each
workload's check in ``perfbench/workloads.py`` parses the bases and reports
entspan writes.  A refactor that moves one of these names, or a change of
file format that a check cannot read, fails here in about a second instead of
only in the slow ``perfbench/tests``.
"""

import importlib
import importlib.util
import inspect
import io
import json
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from entspan.cli import main

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name: str):
    """perfbench's module ``name``, loaded by path under its own name in ``sys.modules``."""
    key = f"perfbench_{name}"
    if key not in sys.modules:
        spec = importlib.util.spec_from_file_location(key, PERFBENCH / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules[key] = module  # dataclasses look their module up there
        spec.loader.exec_module(module)
    return sys.modules[key]


def _tracer_targets():
    return _load("tracer").TARGETS


def test_every_traced_name_resolves():
    targets = _tracer_targets()
    assert targets
    missing = [f"{module}.{attr}" for _, module, attr, _ in targets if not hasattr(importlib.import_module(module), attr)]
    assert missing == []


def test_backend_constant_resolves():
    from entspan import _kernels

    assert _kernels.USING_NUMBA is False


def test_restarts_is_third_positional_parameter():
    # The tracer's restart counter reads a positional ``restarts`` as args[2];
    # moving it would skew verify.restarts_run_ratio without failing a run.
    from entspan.verify import minimize_sigma_r

    params = list(inspect.signature(minimize_sigma_r).parameters.values())
    assert params[2].name == "restarts"
    assert params[2].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD


@pytest.mark.parametrize("name", sorted(_load("workloads").WORKLOADS))
def test_workload_check_accepts_one_op(tmp_path, name):
    # One op as the benchmark runs it, on its first input basis, through the check it applies.
    workload = _load("workloads").WORKLOADS[name]
    basis = tmp_path / "basis0.json"
    calls = workload.op(str(basis), 7)
    outs = [tmp_path / f"out{k}.json" for k in range(len(calls))]
    with redirect_stdout(io.StringIO()):
        assert main([*workload.bases(1)[0], "--out", str(basis)]) == 0
        assert [main([*c.argv, "--out", str(out)]) for c, out in zip(calls, outs)] == [c.exit_code for c in calls]
    reports = [json.loads(out.read_text()) for out in outs]
    assert workload.check(json.loads(basis.read_text()), reports) is None
